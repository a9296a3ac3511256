package fault

import (
	"bytes"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// FuzzLoadDeviceMap feeds arbitrary bytes to the profile decoder: it
// must reject or accept without panicking, and an accepted profile must
// re-encode to exactly the input.
func FuzzLoadDeviceMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a device profile"))
	r := tensor.NewRNG(3)
	ts := []*tensor.Tensor{tensor.New(6, 9), tensor.New(20)}
	for _, t := range ts {
		tensor.FillNormal(t, r, 0, 1)
	}
	f.Add(DrawDeviceMap(r.Stream("a"), ChenModel(), ts, 0.1).Encode())
	f.Add(DrawDeviceMap(r.Stream("b"), Uniform(), ts, 0).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		dm, err := DecodeDeviceMap(data)
		if err != nil {
			return
		}
		if re := dm.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// FuzzParseScenario feeds arbitrary spec strings to the scenario
// parser: it must accept or reject without panicking, and every
// accepted scenario must have a canonical spec that round-trips to an
// equivalent scenario.
func FuzzParseScenario(f *testing.F) {
	f.Add("chen")
	f.Add("chen:r0=1.75,r1=9.04")
	f.Add("transient:r0=1")
	f.Add("cluster:len=8,tile=128")
	f.Add("drop")
	f.Add("cluster:len=-1")
	f.Add("chen:r0=NaN")
	f.Add("chen:r0=1e999")
	f.Add(":::===,,,")
	f.Add("chen:r0=1,r0=2")
	f.Add("  chen  :  r0 = 1 ")

	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			if sc != nil {
				t.Fatalf("Parse(%q) returned both a scenario and error %v", spec, err)
			}
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid scenario: %v", spec, err)
		}
		canon := sc.Spec()
		sc2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if sc2.Spec() != canon {
			t.Fatalf("canonical spec is not a fixed point: %q -> %q", canon, sc2.Spec())
		}
		if sc2.Transient() != sc.Transient() {
			t.Fatalf("spec %q: Transient() not preserved by round-trip", spec)
		}
	})
}

// FuzzDeviceMapRoundTrip draws device maps from fuzzed seeds and rates
// over fuzzed tensor shapes and checks the profile archive round-trip
// reproduces the exact defect pattern (same faults applied to the same
// weights give the same lesion counts and weight values).
func FuzzDeviceMapRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(5), uint8(7))
	f.Add(uint64(99), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(255), uint8(16), uint8(3))

	f.Fuzz(func(t *testing.T, seed uint64, rate, d0, d1 uint8) {
		psa := float64(rate) / 255
		rows, cols := int(d0%16)+1, int(d1%16)+1
		r := tensor.NewRNG(seed)
		w1 := tensor.New(rows, cols)
		w2 := tensor.New(cols)
		tensor.FillNormal(w1, r, 0, 1)
		tensor.FillNormal(w2, r, 0, 1)
		ts := []*tensor.Tensor{w1, w2}

		dm := DrawDeviceMap(r.Stream("draw"), ChenModel(), ts, psa)
		loaded, err := DecodeDeviceMap(dm.Encode())
		if err != nil {
			t.Fatalf("load of freshly saved map failed: %v", err)
		}

		apply := func(m *DeviceMap) ([]float32, int, int) {
			lesion := m.Apply(ts)
			defer lesion.Undo()
			snap := append(append([]float32(nil), w1.Data()...), w2.Data()...)
			sa0, sa1 := lesion.Counts()
			return snap, sa0, sa1
		}
		wantW, want0, want1 := apply(dm)
		gotW, got0, got1 := apply(loaded)
		if got0 != want0 || got1 != want1 {
			t.Fatalf("fault counts differ after round-trip: %d/%d vs %d/%d", got0, got1, want0, want1)
		}
		for i := range wantW {
			if wantW[i] != gotW[i] {
				t.Fatal("round-tripped map produced different faulted weights")
			}
		}
	})
}
