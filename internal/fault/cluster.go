package fault

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Clustered is the spatially-correlated defect scenario (spec
// "cluster"): faults arrive as row-bursts of up to Len consecutive
// cells sharing one stuck-at kind, modeling shorted wordline segments
// and fab defects that take out adjacent cells of a crossbar row
// rather than independent single cells. Bursts never cross a logical
// crossbar-row boundary (a dim-0 slice of the weight tensor) or a tile
// boundary (every Tile columns, the physical crossbar width), matching
// how internal/reram tiles matrices onto fixed-size arrays.
//
// Burst starts are drawn per cell at rate psa/Len, so the expected
// per-cell fault rate stays ≈ psa and sweep results are comparable
// with the independent scenarios at the same x-axis (edge truncation
// biases the realized rate slightly low).
type Clustered struct {
	// Len is the maximum burst length in cells (default 8).
	Len int
	// Tile is the crossbar column width bursts cannot cross
	// (default 128).
	Tile int
	// Mix is the SA0/SA1 split of each burst's kind; zero resolves to
	// ChenModel.
	Mix Model
}

// Cluster default parameters.
const (
	defaultClusterLen  = 8
	defaultClusterTile = 128
)

// NewClustered builds a clustered scenario, resolving zero parameters
// to the defaults (Len 8, Tile 128, Chen mix).
func NewClustered(burstLen, tile int, mix Model) Clustered {
	if burstLen == 0 {
		burstLen = defaultClusterLen
	}
	if tile == 0 {
		tile = defaultClusterTile
	}
	if mix.IsZero() {
		mix = ChenModel()
	}
	return Clustered{Len: burstLen, Tile: tile, Mix: mix}
}

func (c Clustered) Spec() string {
	return fmt.Sprintf("cluster:len=%d,tile=%d,r0=%g,r1=%g",
		c.Len, c.Tile, c.Mix.Ratio0, c.Mix.Ratio1)
}

func (c Clustered) Validate() error {
	if c.Len < 1 {
		return fmt.Errorf("fault: cluster burst length %d < 1", c.Len)
	}
	if c.Tile < 1 {
		return fmt.Errorf("fault: cluster tile width %d < 1", c.Tile)
	}
	return c.Mix.Validate()
}

func (c Clustered) Transient() bool { return false }

// crossbarRowLen returns the length of one logical crossbar row of t:
// a dim-0 slice (filter / output row), the unit the reram mapper lays
// out contiguously. Degenerate shapes fall back to the whole tensor.
func crossbarRowLen(t *tensor.Tensor) int {
	n := t.Len()
	d0 := t.Dim(0)
	if d0 <= 0 || n%d0 != 0 {
		return n
	}
	return n / d0
}

// faultSink receives the faults forEachFault generates. It is an
// interface (rather than a func value) so injectors can pass their own
// receiver and keep the warm path allocation-free.
type faultSink interface {
	fault(idx int, kind Kind, sign int8)
}

// forEachFault draws one clustered defect pattern over n cells with
// row length rowLen, emitting each faulted cell to sink. RNG
// consumption is strictly positional — one Float64 per candidate burst
// start (cells inside a burst consume nothing), one Float64 per burst
// for its kind, one Uint64 per SA1 cell for its sign — and is shared
// verbatim by DrawMap and the injector, so a device map and an
// injected lesion drawn from the same stream are identical.
func (c Clustered) forEachFault(rng *tensor.RNG, n, rowLen int, psa float64, sink faultSink) {
	if n == 0 || psa == 0 {
		return
	}
	if rowLen <= 0 {
		rowLen = n
	}
	pStart := psa / float64(c.Len)
	p1 := c.Mix.P1()
	for i := 0; i < n; {
		if rng.Float64() >= pStart {
			i++
			continue
		}
		rowStart := i - i%rowLen
		r := i - rowStart
		tileEnd := rowStart + min((r/c.Tile+1)*c.Tile, rowLen)
		end := min(i+c.Len, tileEnd)
		kind := SA0
		if rng.Float64() < p1 {
			kind = SA1
		}
		for ; i < end; i++ {
			var sign int8
			if kind == SA1 {
				sign = 1
				if rng.Uint64()%2 == 0 {
					sign = -1
				}
			}
			sink.fault(i, kind, sign)
		}
	}
}

// mapSink accumulates forEachFault output into a DeviceMap.
type mapSink struct {
	dm *DeviceMap
	ti int
}

func (s *mapSink) fault(idx int, kind Kind, sign int8) {
	s.dm.faults[s.ti] = append(s.dm.faults[s.ti], pinnedFault{idx: int32(idx), kind: kind, sign: sign})
}

// DrawMap samples a fixed clustered defect pattern for the tensors.
func (c Clustered) DrawMap(rng *tensor.RNG, tensors []*tensor.Tensor, psa float64) *DeviceMap {
	if psa < 0 || psa > 1 {
		panic(fmt.Sprintf("fault: psa %v out of [0,1]", psa))
	}
	dm := &DeviceMap{
		Psa:    psa,
		faults: make([][]pinnedFault, len(tensors)),
		shapes: make([][]int, len(tensors)),
	}
	sink := mapSink{dm: dm}
	for ti, t := range tensors {
		dm.shapes[ti] = append([]int(nil), t.Shape()...)
		sink.ti = ti
		c.forEachFault(rng, t.Len(), crossbarRowLen(t), psa, &sink)
	}
	return dm
}

// NewInjector binds the clustered scenario to the given weight tensors.
func (c Clustered) NewInjector(ts []*tensor.Tensor) Injector {
	return &clusterInjector{sc: c, tensors: ts}
}

// clusterInjector draws clustered lesions over a fixed tensor set. It
// is its own faultSink: during an inject pass the current tensor's
// state lives in the receiver, so forEachFault emits through an
// existing pointer and the warm path stays allocation-free.
type clusterInjector struct {
	sc      Clustered
	tensors []*tensor.Tensor

	scratch *Lesion
	rng     *tensor.RNG

	// per-tensor state of the in-flight inject pass
	l    *Lesion
	ti   int
	d    []float32
	wmax float32
}

func (inj *clusterInjector) fault(idx int, kind Kind, sign int8) {
	inj.l.undo[inj.ti] = append(inj.l.undo[inj.ti], entry{idx: int32(idx), old: inj.d[idx]})
	if kind == SA1 {
		inj.d[idx] = float32(sign) * inj.wmax
		inj.l.nSA1++
	} else {
		inj.d[idx] = 0
		inj.l.nSA0++
	}
}

// inject applies one clustered lesion drawn from inj.rng (already
// positioned) and returns it for undo.
func (inj *clusterInjector) inject(psa float64) *Lesion {
	if psa < 0 || psa > 1 {
		panic(fmt.Sprintf("fault: psa %v out of [0,1]", psa))
	}
	l := recycleLesion(inj.scratch, inj.tensors)
	if l == nil {
		l = newLesion(inj.tensors)
		inj.scratch = l
	}
	if psa == 0 {
		return l
	}
	inj.l = l
	for ti, t := range inj.tensors {
		inj.ti = ti
		inj.d = t.Data()
		inj.wmax = t.MaxAbs()
		l.total += t.Len()
		inj.sc.forEachFault(inj.rng, t.Len(), crossbarRowLen(t), psa, inj)
	}
	inj.l, inj.d = nil, nil
	return l
}

func (inj *clusterInjector) seedRNG(seed uint64) {
	if inj.rng == nil {
		inj.rng = tensor.NewRNG(0)
	}
	inj.rng.Reseed(seed)
}

func (inj *clusterInjector) InjectRun(seed uint64, run int, psa float64) *Lesion {
	inj.seedRNG(tensor.StreamSeedN(seed, "defect-run", run))
	return inj.inject(psa)
}

func (inj *clusterInjector) InjectStep(seed uint64, run, step int, psa float64) *Lesion {
	inj.seedRNG(stepSeed(seed, run, step))
	return inj.inject(psa)
}

func init() {
	Register("cluster", func(params map[string]string) (Scenario, error) {
		burstLen, err := popInt(params, "len", defaultClusterLen)
		if err != nil {
			return nil, err
		}
		tile, err := popInt(params, "tile", defaultClusterTile)
		if err != nil {
			return nil, err
		}
		mix, err := popModel(params)
		if err != nil {
			return nil, err
		}
		return Clustered{Len: burstLen, Tile: tile, Mix: mix}, nil
	})
}
