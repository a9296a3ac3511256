package fault

import (
	"fmt"
	"slices"

	"github.com/ftpim/ftpim/internal/tensor"
)

// pinnedFault is one fixed defect location on a device.
type pinnedFault struct {
	idx  int32
	kind Kind
	sign int8 // +1/−1 for SA1; ignored for SA0
}

// DeviceMap is the fixed defect pattern of one physical device: each
// manufactured ReRAM chip has its own set of stuck cells that does not
// change between inferences. Re-applying the map models deploying the
// (possibly retrained) weights onto the same defective device.
//
// Stuck-on values track the weight tensor's current |w|max at apply
// time, because the conductance scale is re-derived whenever a model
// is reprogrammed onto the crossbar.
// A DeviceMap is not safe for concurrent Apply calls: it recycles one
// lesion record across the apply→undo cycle (training applies the same
// map every batch).
type DeviceMap struct {
	Psa    float64
	faults [][]pinnedFault
	shapes [][]int

	scratch *Lesion // recycled once the caller has undone it
}

// DrawDeviceMap samples a fixed defect pattern for tensors with the
// given per-cell stuck-at rate.
func DrawDeviceMap(rng *tensor.RNG, m Model, tensors []*tensor.Tensor, psa float64) *DeviceMap {
	if psa < 0 || psa > 1 {
		panic(fmt.Sprintf("fault: psa %v out of [0,1]", psa))
	}
	dm := &DeviceMap{
		Psa:    psa,
		faults: make([][]pinnedFault, len(tensors)),
		shapes: make([][]int, len(tensors)),
	}
	p1 := m.P1()
	for ti, t := range tensors {
		dm.shapes[ti] = append([]int(nil), t.Shape()...)
		for i := 0; i < t.Len(); i++ {
			if rng.Float64() >= psa {
				continue
			}
			f := pinnedFault{idx: int32(i), kind: SA0}
			if rng.Float64() < p1 {
				f.kind = SA1
				f.sign = 1
				if rng.Uint64()%2 == 0 {
					f.sign = -1
				}
			}
			dm.faults[ti] = append(dm.faults[ti], f)
		}
	}
	return dm
}

// NumFaults returns the total defect count on the device.
func (dm *DeviceMap) NumFaults() int {
	n := 0
	for _, fs := range dm.faults {
		n += len(fs)
	}
	return n
}

// Check reports an error unless tensors match, in count and in every
// shape, the tensors the map was drawn for. Apply panics on a mismatch;
// callers holding a profile read from disk call Check first.
func (dm *DeviceMap) Check(tensors []*tensor.Tensor) error {
	if len(tensors) != len(dm.shapes) {
		return fmt.Errorf("fault: device map covers %d tensors, model has %d", len(dm.shapes), len(tensors))
	}
	for ti, t := range tensors {
		if !slices.Equal(t.Shape(), dm.shapes[ti]) {
			return fmt.Errorf("fault: device map tensor %d has shape %v, model has %v", ti, dm.shapes[ti], t.Shape())
		}
	}
	return nil
}

// Apply pins the device's defects onto the given tensors (which must
// have the shapes the map was drawn for) and returns an undoable
// lesion.
func (dm *DeviceMap) Apply(tensors []*tensor.Tensor) *Lesion {
	if len(tensors) != len(dm.faults) {
		panic("fault: DeviceMap tensor count mismatch")
	}
	l := recycleLesion(dm.scratch, tensors)
	if l == nil {
		l = newLesion(tensors)
		dm.scratch = l
	}
	for ti, t := range tensors {
		if t.Len() == 0 {
			continue
		}
		for di, d := range dm.shapes[ti] {
			if t.Dim(di) != d {
				panic(fmt.Sprintf("fault: DeviceMap shape mismatch at tensor %d: %v vs %v", ti, t.Shape(), dm.shapes[ti]))
			}
		}
		l.total += t.Len()
		wmax := t.MaxAbs()
		d := t.Data()
		for _, f := range dm.faults[ti] {
			l.undo[ti] = append(l.undo[ti], entry{idx: f.idx, old: d[f.idx]})
			switch f.kind {
			case SA0:
				d[f.idx] = 0
				l.nSA0++
			case SA1:
				d[f.idx] = float32(f.sign) * wmax
				l.nSA1++
			}
		}
	}
	return l
}

// Mask returns, for tensor ti, the fault kind at every element
// (−1 = healthy, else the Kind). Used by the device-specific
// fault-aware retraining baseline, which assumes the defect locations
// were identified by a march test.
func (dm *DeviceMap) Mask(ti int) []int8 {
	n := 1
	for _, d := range dm.shapes[ti] {
		n *= d
	}
	mask := make([]int8, n)
	for i := range mask {
		mask[i] = -1
	}
	for _, f := range dm.faults[ti] {
		mask[f.idx] = int8(f.kind)
	}
	return mask
}
