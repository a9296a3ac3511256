package ftpm

import (
	"testing"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// FuzzLoadModel drives Decode with arbitrary bytes, mirroring the
// checkpoint container's FuzzLoadCheckpoint: it must never panic and
// never allocate unboundedly, and anything it accepts must re-encode
// to the exact input bytes — FTPM has a single canonical byte
// representation (sorted sections, layer-order blobs), so
// decode∘encode is the identity on valid files. A decoded model that
// passes the static shape walk for a one-channel 6×6 image (the seed
// model's input) must then run a one-image forward without panicking
// and return one row of scores.
func FuzzLoadModel(f *testing.F) {
	rng := tensor.NewRNG(51)
	net := nn.NewNetwork(
		nn.NewConv2D("c1", 1, 2, 3, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn1", 2),
		nn.NewReLU(),
		nn.NewGlobalAvgPool2D(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 2, 2, rng),
	)
	calib := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(calib, rng, 0, 1)
	q, err := nn.QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(q, Meta{Model: "fuzz", Dataset: "synthetic"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])              // truncated tail
	f.Add(append([]byte(nil), valid[4:]...)) // missing magic
	f.Add([]byte("FTPM"))                    // magic only
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[20] ^= 0x10
	f.Add(mut) // bit flip
	block := nn.NewNetwork(
		nn.NewConv2D("c1", 1, 2, 3, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("bn1", 2),
		nn.NewReLU(),
		nn.NewBasicBlock("b1", 2, 3, 2, rng),
		nn.NewGlobalAvgPool2D(),
		nn.NewLinear("fc", 3, 2, rng),
	)
	qb, err := nn.QuantizeNetwork(block, []*tensor.Tensor{calib})
	if err != nil {
		f.Fatal(err)
	}
	withBlock, err := Encode(qb, Meta{Model: "fuzz-block", Dataset: "synthetic"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withBlock)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, meta, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(got, meta)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("decode∘encode is not identity: %d in, %d out", len(data), len(re))
		}
		classes := 0
		if fc, ok := got.Layers[len(got.Layers)-1].(*nn.QLinear); ok {
			classes = fc.Out
		}
		if got.CheckShape(1, 6, 6, classes) != nil {
			return
		}
		x := tensor.New(1, 1, 6, 6)
		tensor.FillNormal(x, tensor.NewRNG(uint64(len(data))), 0, 1)
		if out := got.Forward(x, false); out.Len() != classes {
			t.Fatalf("forward returned shape %v, want (1,%d)", out.Shape(), classes)
		}
	})
}
