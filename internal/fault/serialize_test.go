package fault

import (
	"bytes"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

func TestDeviceMapSaveLoadRoundTrip(t *testing.T) {
	r := tensor.NewRNG(31)
	ts := randTensors(r, 300, 70)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.08)

	dm2, err := DecodeDeviceMap(dm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dm2.Psa != dm.Psa || dm2.NumFaults() != dm.NumFaults() {
		t.Fatalf("metadata mismatch: %v/%d vs %v/%d", dm2.Psa, dm2.NumFaults(), dm.Psa, dm.NumFaults())
	}
	// Applying both maps must produce identical weights.
	l1 := dm.Apply(ts)
	after1 := []*tensor.Tensor{ts[0].Clone(), ts[1].Clone()}
	l1.Undo()
	l2 := dm2.Apply(ts)
	if !ts[0].Equal(after1[0]) || !ts[1].Equal(after1[1]) {
		t.Fatal("loaded map applies differently")
	}
	l2.Undo()
}

func TestDeviceMapSaveLoadEmpty(t *testing.T) {
	r := tensor.NewRNG(32)
	ts := randTensors(r, 50)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0) // no faults
	dm2, err := DecodeDeviceMap(dm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dm2.NumFaults() != 0 {
		t.Fatal("empty map should stay empty")
	}
	dm2.Apply(ts).Undo() // and still apply cleanly
}

// Encode→decode→encode must be a byte-identical fixed point: archived
// defect profiles can be re-saved (e.g. migrated or checkpointed)
// without ever drifting from the station's original measurement.
func TestDeviceMapSerializeFixedPoint(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		rate  float64
		sizes []int
	}{
		{41, 0, []int{30}},
		{42, 0.02, []int{256, 64, 10}},
		{43, 0.1, []int{300, 70}},
		{44, 0.5, []int{17, 1, 99}},
	} {
		r := tensor.NewRNG(tc.seed)
		ts := randTensors(r, tc.sizes...)
		dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, tc.rate)

		b1 := dm.Encode()
		dm2, err := DecodeDeviceMap(b1)
		if err != nil {
			t.Fatal(err)
		}
		if b2 := dm2.Encode(); !bytes.Equal(b1, b2) {
			t.Fatalf("seed=%d rate=%v: encode∘decode∘encode changed the encoding (%d vs %d bytes)",
				tc.seed, tc.rate, len(b1), len(b2))
		}
	}
}

// A profile comes from outside the program: every truncation and every
// single-bit flip of a valid one must be an error, never a different
// map.
func TestDecodeDeviceMapRejectsEveryTruncationAndBitFlip(t *testing.T) {
	r := tensor.NewRNG(45)
	ts := []*tensor.Tensor{tensor.New(4, 5), tensor.New(6)}
	for _, x := range ts {
		tensor.FillNormal(x, r, 0, 1)
	}
	b := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.3).Encode()
	for n := 0; n < len(b); n++ {
		if _, err := DecodeDeviceMap(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", n, len(b))
		}
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			if _, err := DecodeDeviceMap(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded", i, bit)
			}
		}
	}
}

func TestLoadDeviceMapGarbage(t *testing.T) {
	if _, err := DecodeDeviceMap([]byte("not a device profile")); err == nil {
		t.Fatal("expected error on garbage")
	}
}

func TestLoadDeviceMapOutOfRangeIndex(t *testing.T) {
	// Encode does not validate, so a map whose shape shrank after the
	// draw encodes fault indices the decoder must refuse.
	r := tensor.NewRNG(33)
	ts := randTensors(r, 100)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.2)
	if dm.NumFaults() == 0 {
		t.Skip("no faults drawn")
	}
	dm.shapes[0] = []int{1} // pretend the tensor is tiny
	if _, err := DecodeDeviceMap(dm.Encode()); err == nil {
		t.Fatal("expected out-of-range index error")
	}
}

// Mask allocates one byte per element of a profile's shape, so the
// decoder bounds rank and element count before anything trusts them.
func TestDecodeDeviceMapBoundsShapes(t *testing.T) {
	for _, shape := range [][]int{
		{1 << 12, 1 << 12, 1 << 12}, // 2^36 elements
		{1, 1, 1, 1, 1, 1, 1, 1, 1}, // rank 9
	} {
		dm := &DeviceMap{Psa: 0.1, shapes: [][]int{shape}, faults: [][]pinnedFault{nil}}
		if _, err := DecodeDeviceMap(dm.Encode()); err == nil {
			t.Fatalf("shape %v decoded", shape)
		}
	}
}

func TestDeviceMapCheck(t *testing.T) {
	r := tensor.NewRNG(46)
	ts := randTensors(r, 12, 7)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.1)
	if err := dm.Check(ts); err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]*tensor.Tensor{
		ts[:1],                        // fewer tensors
		{ts[0], tensor.New(7, 1)},     // same size, different shape
		{ts[0], ts[1], tensor.New(3)}, // more tensors
	} {
		if err := dm.Check(other); err == nil {
			t.Fatalf("Check accepted %d mismatched tensors", len(other))
		}
	}
}
