package tensor

import (
	"bytes"
	"math"
	"testing"
)

// bitsEqual compares tensors at the bit level, so NaN payloads (which
// arbitrary fuzz bytes can produce) still round-trip meaningfully.
func bitsEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// FuzzTensorReadFrom feeds arbitrary bytes to the tensor-list decoder:
// it must never panic, and anything it accepts must re-encode to
// exactly the input — the encoding is canonical.
func FuzzTensorReadFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FTT1junk"))
	f.Add(AppendTensors(nil, New()))
	f.Add(AppendTensors(nil, Full(1.5, 3, 4)))
	r := NewRNG(1)
	big := New(5, 2, 3)
	FillNormal(big, r, 0, 2)
	f.Add(AppendTensors(nil, big))
	f.Add(AppendTensors(nil, big, nil, New(0, 7)))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTensors(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if re := AppendTensors(nil, ts...); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// FuzzTensorWriteRead builds tensors from fuzzed shapes and payloads
// and checks the list round-trip preserves every bit, and that the
// decoded list re-encodes to the same bytes.
func FuzzTensorWriteRead(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{0, 1, 2, 3})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(7), []byte{255, 255, 255, 255, 0x7f, 0xc0, 0, 0})

	f.Fuzz(func(t *testing.T, d0, d1 uint8, payload []byte) {
		m, n := int(d0%9), int(d1%9)
		tt := New(m, n)
		d := tt.Data()
		for i := range d {
			var bits uint32
			for b := 0; b < 4; b++ {
				if idx := i*4 + b; idx < len(payload) {
					bits |= uint32(payload[idx]) << (8 * b)
				}
			}
			d[i] = math.Float32frombits(bits)
		}
		enc := AppendTensors(nil, tt, nil)
		got, err := DecodeTensors(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(got) != 2 || got[1] != nil || !bitsEqual(tt, got[0]) {
			t.Fatal("list round-trip lost bits")
		}
		if !bytes.Equal(AppendTensors(nil, got...), enc) {
			t.Fatal("re-encoding the decoded list changed its bytes")
		}
	})
}
