package fault

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/tensor"
)

// stuckAt is the family of independent-per-cell stuck-at scenarios:
// the persistent Chen-ratio default ("chen", one lesion per Monte-Carlo
// run), the per-inference variant ("transient", fresh lesion every
// forward pass), and drop-connect drops ("drop", SA0-only transient).
// All three share the StuckAtInjector; only the name, the SA0/SA1 mix,
// and the redraw cadence differ.
type stuckAt struct {
	name      string
	model     Model
	transient bool
}

// Chen returns the default scenario: persistent stuck-at faults at the
// paper's Chen ratio (spec "chen").
func Chen() Scenario { return stuckAt{name: "chen", model: ChenModel()} }

// StuckAt returns a persistent stuck-at scenario with a custom SA0/SA1
// mix (spec "chen:r0=...,r1=..."). A zero model resolves to ChenModel.
func StuckAt(m Model) Scenario {
	if m.IsZero() {
		m = ChenModel()
	}
	return stuckAt{name: "chen", model: m}
}

// DropConnect returns the SA0-only transient scenario (spec "drop"):
// every forward pass independently zeroes each weight with probability
// psa. It is the injection half of drop-connect fault-tolerant
// training (arXiv 2404.15498) and is also evaluable on its own.
func DropConnect() Scenario {
	return stuckAt{name: "drop", model: Model{Ratio0: 1}, transient: true}
}

func (s stuckAt) Spec() string {
	if s.name == "drop" {
		return "drop"
	}
	return fmt.Sprintf("%s:r0=%g,r1=%g", s.name, s.model.Ratio0, s.model.Ratio1)
}

func (s stuckAt) Validate() error { return s.model.Validate() }

func (s stuckAt) NewInjector(ts []*tensor.Tensor) Injector {
	return NewInjector(s.model, ts)
}

func (s stuckAt) DrawMap(rng *tensor.RNG, ts []*tensor.Tensor, psa float64) *DeviceMap {
	return DrawDeviceMap(rng, s.model, ts, psa)
}

func (s stuckAt) Transient() bool { return s.transient }

// popModel consumes the r0/r1 parameters of a stuck-at spec,
// defaulting to the Chen ratios.
func popModel(params map[string]string) (Model, error) {
	chen := ChenModel()
	r0, err := popFloat(params, "r0", chen.Ratio0)
	if err != nil {
		return Model{}, err
	}
	r1, err := popFloat(params, "r1", chen.Ratio1)
	if err != nil {
		return Model{}, err
	}
	return Model{Ratio0: r0, Ratio1: r1}, nil
}

func init() {
	Register("chen", func(params map[string]string) (Scenario, error) {
		m, err := popModel(params)
		if err != nil {
			return nil, err
		}
		return stuckAt{name: "chen", model: m}, nil
	})
	Register("transient", func(params map[string]string) (Scenario, error) {
		m, err := popModel(params)
		if err != nil {
			return nil, err
		}
		return stuckAt{name: "transient", model: m, transient: true}, nil
	})
	Register("drop", func(params map[string]string) (Scenario, error) {
		return DropConnect(), nil
	})
}
