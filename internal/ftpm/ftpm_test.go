package ftpm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// testQNet builds a small calibrated quantized network covering every
// layer kind FTPM serializes, plus an input batch for output checks.
func testQNet(t testing.TB, seed uint64) (*nn.QuantizedNetwork, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork(
		nn.NewConv2D("c1", 2, 4, 3, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewReLU(),
		nn.NewBasicBlock("b1", 4, 8, 2, rng),
		nn.NewGlobalAvgPool2D(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 8, 4, rng),
	)
	warm := tensor.New(4, 2, 8, 8)
	for i := 0; i < 3; i++ {
		tensor.FillNormal(warm, rng, 0, 1)
		net.Forward(warm, true) // move BN running stats off init
	}
	calib := tensor.New(8, 2, 8, 8)
	tensor.FillNormal(calib, rng, 0, 1)
	q, err := nn.QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	// QuantizeNetwork emits no identity layer; FTPM still encodes one.
	q.Layers = slices.Insert(q.Layers, 4, nn.QLayer(nn.NewQIdentity()))
	x := tensor.New(4, 2, 8, 8)
	tensor.FillNormal(x, rng, 0, 1)
	return q, x
}

func sampleMeta() Meta {
	return Meta{Model: "testnet", Dataset: "synthetic", Classes: 4,
		FloatAcc: 0.91, QuantAcc: 0.90, Created: "2026-08-08T00:00:00Z"}
}

// TestEncodeDecodeRoundTrip: the decoded network must produce
// bitwise-identical outputs to the source network (int8 planes and
// scales survive exactly), and the meta block must survive.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	q, x := testQNet(t, 31)
	b, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if meta != sampleMeta() {
		t.Fatalf("meta round trip: got %+v", meta)
	}
	if len(got.Layers) != len(q.Layers) {
		t.Fatalf("decoded %d layers, want %d", len(got.Layers), len(q.Layers))
	}
	for i, l := range q.Layers {
		if gt, wt := fmt.Sprintf("%T", got.Layers[i]), fmt.Sprintf("%T", l); gt != wt {
			t.Fatalf("layer %d decoded as %s, want %s", i, gt, wt)
		}
	}
	want := append([]float32(nil), q.Forward(x, false).Data()...)
	out := got.Forward(x, false).Data()
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("decoded output[%d] = %v, want bitwise %v", i, out[i], v)
		}
	}
}

// TestEncodeDeterministic: identical networks encode to identical
// bytes (sorted sections + layer-order blobs).
func TestEncodeDeterministic(t *testing.T) {
	q, _ := testQNet(t, 32)
	a, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical networks must encode to identical bytes")
	}
}

// TestDecodeAliasesWeights pins the zero-copy contract: the decoded
// network's int8 planes must point INTO the input buffer, not into a
// copy.
func TestDecodeAliasesWeights(t *testing.T) {
	q, _ := testQNet(t, 33)
	b, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&b[0]))
	hi := lo + uintptr(len(b))
	checked := 0
	for _, l := range got.Layers {
		var wq []int8
		switch t := l.(type) {
		case *nn.QConv2D:
			wq = t.WQ
		case *nn.QLinear:
			wq = t.WQ
		case *nn.QBasicBlock:
			wq = t.Conv1.WQ
		default:
			continue
		}
		p := uintptr(unsafe.Pointer(&wq[0]))
		if p < lo || p >= hi {
			t.Fatalf("layer %T weight plane does not alias the input buffer", l)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d weighted layers checked, want >= 3", checked)
	}
}

// TestDecodeRejectsAllTruncationsAndBitFlips mirrors the checkpoint
// container's corruption table: every single-byte truncation and
// every single-bit flip of a valid model file must fail to decode —
// never a panic, never a silently different model. (Unlike ckpt,
// ftpm pins the full section set and blob/arch agreement, so every
// flip must be REJECTED outright, including framing flips the generic
// container would tolerate.)
func TestDecodeRejectsAllTruncationsAndBitFlips(t *testing.T) {
	q, _ := testQNet(t, 34)
	b, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, _, err := Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes must not decode", n, len(b))
		}
	}
	mut := make([]byte, len(b))
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			copy(mut, b)
			mut[i] ^= 1 << bit
			if _, _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d must not decode", i, bit)
			}
		}
	}
}

// TestSaveLoad exercises the file path end to end: Save writes
// atomically, Load memory-maps (on unix) and the loaded network
// matches the source bitwise.
func TestSaveLoad(t *testing.T) {
	q, x := testQNet(t, 35)
	path := filepath.Join(t.TempDir(), "model.ftpm")
	if err := Save(path, q, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta != sampleMeta() {
		t.Fatalf("meta: got %+v", m.Meta)
	}
	want := append([]float32(nil), q.Forward(x, false).Data()...)
	out := m.Net.Forward(x, false).Data()
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("loaded output[%d] = %v, want bitwise %v", i, out[i], v)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

// TestLoadMapped: on linux the load path must actually mmap, and the
// network's planes must alias the mapping (the cold-start win the
// format exists for).
func TestLoadMapped(t *testing.T) {
	q, _ := testQNet(t, 36)
	path := filepath.Join(t.TempDir(), "model.ftpm")
	if err := Save(path, q, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped {
		t.Skip("mmap unavailable on this platform")
	}
	// A clone shares the mapped planes — serving replicas add no
	// weight memory.
	c := m.Net.Clone()
	qc := m.Net.Layers[0].(*nn.QConv2D)
	cc := c.Layers[0].(*nn.QConv2D)
	if &qc.WQ[0] != &cc.WQ[0] {
		t.Fatal("clone copied mapped weight plane")
	}
}

// TestLoadErrors covers the failure surface: missing file, garbage
// file.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.ftpm")); err == nil {
		t.Fatal("missing file accepted")
	}
	p := filepath.Join(t.TempDir(), "garbage.ftpm")
	if err := os.WriteFile(p, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil {
		t.Fatal("garbage file accepted")
	}
}

// TestEncodeRejectsUncalibrated: exporting a network whose activation
// scales were never calibrated is an error, not a silent zero-scale
// model.
func TestEncodeRejectsUncalibrated(t *testing.T) {
	q := &nn.QuantizedNetwork{Layers: []nn.QLayer{
		nn.NewQConv2D(1, 1, 1, 1, 1, 0, []int8{1}, []float32{1}, nil, 0),
	}}
	if _, err := Encode(q, Meta{}); err == nil {
		t.Fatal("uncalibrated network accepted")
	}
	if _, err := Encode(nil, Meta{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := Encode(&nn.QuantizedNetwork{}, Meta{}); err == nil {
		t.Fatal("empty network accepted")
	}
}

// A conv record whose four dims are each at the 2^16 bound has a weight
// count of 2^64, which wraps to 0 in int arithmetic: the decoder must
// reject it for lack of weights, not accept an empty weight plane.
func TestDecodeRejectsOverflowingConvDims(t *testing.T) {
	arch := binary.LittleEndian.AppendUint32(nil, 1)
	arch = append(arch, kindConv)
	for _, d := range []uint32{maxDim, maxDim, maxDim, maxDim, 1, 0} { // in, out, kh, kw, stride, pad
		arch = binary.LittleEndian.AppendUint32(arch, d)
	}
	arch = append(arch, 0) // no bias
	arch = binary.LittleEndian.AppendUint32(arch, math.Float32bits(1))
	scales := make([]float32, maxDim)
	for i := range scales {
		scales[i] = 1
	}
	b, err := ckpt.EncodeContainer(format, map[string][]byte{
		"arch": arch, "weights": nil, "scales": appendF32(nil, scales),
		"biases": nil, "bn": nil, "meta": []byte("{}"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoded a conv with 2^64 weights from an empty weights blob")
	}
}
