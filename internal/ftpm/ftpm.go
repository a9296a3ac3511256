// Package ftpm is the exported single-file model format: an int8
// quantized network plus its architecture, scales, and provenance in
// one mmap-able file.
//
// FTPM reuses the hardened section container from internal/ckpt (same
// wire discipline: magic, version, sorted sections, per-section
// CRC-32) under its own magic 'FTPM'. The ckpt checkpoint format
// snapshots a float training run mid-flight; FTPM is the deployment
// artifact — inference-only, quantized, write-once.
//
// The section count in the container is hard-bounded (64), so FTPM
// does NOT use one section per layer (a ResNet-32 has 31 weighted
// layers and would overflow). Instead it consolidates:
//
//	"arch"    binary layer list (kinds, shapes, activation scales)
//	"weights" every int8 weight plane, concatenated in layer order
//	"scales"  every per-row weight scale, float32 LE, layer order
//	"biases"  every bias vector, float32 LE, layer order
//	"bn"      every folded batch-norm affine (scale then shift), layer order
//	"meta"    JSON provenance (model/dataset/accuracies)
//
// Layer order fully determines every blob offset, so decode walks one
// cursor per blob and requires each to land exactly at its blob's end.
//
// Zero-copy contract: Decode aliases the "weights" payload — the
// network's int8 planes point INTO the input buffer (an mmap'd region
// under Load). int8 has alignment 1, so the cast is always valid. The
// float32 blobs are small (per-channel, not per-weight) and their
// payload offsets carry no alignment guarantee, so they are decoded
// into fresh slices. Consequences: the mapped file must outlive the
// network (Model.Close unmaps — drop the network first), and the
// weights are immutable — the mapping is PROT_READ, so a stray write
// faults instead of corrupting the model. Fault-injection (defect
// eval) stays on the float path, which owns its planes.
package ftpm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"unsafe"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/nn"
)

// FormatVersion is the FTPM container version.
const FormatVersion = 1

// FormatName is the human-readable format identifier surfaced by
// `ftpim version` and /v1/healthz.
const FormatName = "ftpm-v1"

// format instantiates the shared ckpt section container for FTPM.
var format = ckpt.Format{Magic: [4]byte{'F', 'T', 'P', 'M'}, Version: FormatVersion, Tag: "ftpm"}

// Decoder hardening bounds: dimensions in the arch section are
// validated against these before any multiplication, so hostile files
// cannot overflow size arithmetic or demand huge allocations.
const (
	maxLayers = 1024
	maxDim    = 1 << 16
)

// Meta is the provenance block stored alongside the weights.
type Meta struct {
	Model    string  `json:"model"`               // e.g. "resnet8"
	Dataset  string  `json:"dataset"`             // e.g. "repro"
	Classes  int     `json:"classes,omitempty"`   // output classes
	FloatAcc float64 `json:"float_acc,omitempty"` // float32 top-1 at export
	QuantAcc float64 `json:"quant_acc,omitempty"` // int8 top-1 at export
	Created  string  `json:"created,omitempty"`   // RFC 3339, informational
}

// The arch section is a fixed little-endian binary encoding rather
// than JSON: cold start is the format's reason to exist, and profiling
// showed reflective JSON decoding of the layer list dominating Load
// (~75% of its time on a ResNet-20). Layout: u32 layer count, then per
// layer a kind byte followed by that kind's fields (u32 dims, a 0/1
// bias byte, f32 activation scale; blocks carry a sub-count byte and
// nested records). Blob offsets are not stored: decode derives them
// from the dims, walking each blob with a cursor in layer order. The
// encoding is canonical — exactly one byte string per network — which
// the loader enforces (bias bytes must be 0 or 1, sub-count must be 4,
// no trailing bytes) so decode∘encode stays the identity the fuzz
// harness pins.
const (
	kindConv byte = iota + 1
	kindLinear
	kindBN
	kindReLU
	kindGAP
	kindFlatten
	kindIdentity
	kindBlock
)

// encoder accumulates the arch records and the consolidated blobs in
// layer order.
type encoder struct {
	arch               []byte
	weights            []int8
	scales, biases, bn []float32
}

func (e *encoder) u32s(vs ...int) {
	for _, v := range vs {
		e.arch = binary.LittleEndian.AppendUint32(e.arch, uint32(v))
	}
}

// gemm writes a conv or linear record after its kind byte and dims:
// the bias flag and activation scale, with the weights, row scales and
// bias appended to their blobs.
func (e *encoder) gemm(what string, wq []int8, ws, bias []float32, xScale float32) error {
	if xScale <= 0 {
		return fmt.Errorf("ftpm: %s layer not calibrated (XScale=%v)", what, xScale)
	}
	e.arch = append(e.arch, boolByte(bias != nil))
	e.arch = binary.LittleEndian.AppendUint32(e.arch, math.Float32bits(xScale))
	e.weights = append(e.weights, wq...)
	e.scales = append(e.scales, ws...)
	e.biases = append(e.biases, bias...)
	return nil
}

func (e *encoder) layer(l nn.QLayer) error {
	switch t := l.(type) {
	case *nn.QConv2D:
		e.arch = append(e.arch, kindConv)
		e.u32s(t.InC, t.OutC, t.KH, t.KW, t.Stride, t.Pad)
		return e.gemm("conv", t.WQ, t.WScale, t.Bias, t.XScale)
	case *nn.QLinear:
		e.arch = append(e.arch, kindLinear)
		e.u32s(t.In, t.Out)
		return e.gemm("linear", t.WQ, t.WScale, t.Bias, t.XScale)
	case *nn.QBatchNorm:
		e.arch = append(e.arch, kindBN)
		e.u32s(t.C)
		e.bn = append(append(e.bn, t.Scale...), t.Shift...)
	case *nn.QReLU:
		e.arch = append(e.arch, kindReLU)
	case *nn.QGlobalAvgPool:
		e.arch = append(e.arch, kindGAP)
	case *nn.QFlatten:
		e.arch = append(e.arch, kindFlatten)
	case nn.QIdentity, *nn.QIdentity:
		e.arch = append(e.arch, kindIdentity)
	case *nn.QBasicBlock:
		e.arch = append(e.arch, kindBlock)
		e.u32s(t.InC, t.OutC, t.Stride)
		e.arch = append(e.arch, 4) // sub-layers: conv, bn, conv, bn
		for _, inner := range []nn.QLayer{t.Conv1, t.BN1, t.Conv2, t.BN2} {
			if err := e.layer(inner); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ftpm: unsupported layer type %T", l)
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Encode serializes a calibrated quantized network into one FTPM
// container. The network must come out of nn.QuantizeNetwork (or an
// FTPM decode): every conv/linear layer needs a positive activation
// scale.
func Encode(q *nn.QuantizedNetwork, meta Meta) ([]byte, error) {
	if q == nil || len(q.Layers) == 0 {
		return nil, fmt.Errorf("ftpm: empty network")
	}
	if len(q.Layers) > maxLayers {
		return nil, fmt.Errorf("ftpm: %d layers exceeds limit %d", len(q.Layers), maxLayers)
	}
	e := &encoder{arch: binary.LittleEndian.AppendUint32(nil, uint32(len(q.Layers)))}
	for _, l := range q.Layers {
		if err := e.layer(l); err != nil {
			return nil, err
		}
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("ftpm: encode meta: %w", err)
	}
	return ckpt.EncodeContainer(format, map[string][]byte{
		"arch":    e.arch,
		"weights": bytesOfS8(e.weights),
		"scales":  appendF32(nil, e.scales),
		"biases":  appendF32(nil, e.biases),
		"bn":      appendF32(nil, e.bn),
		"meta":    metaJSON,
	})
}

// Decode reconstructs the quantized network from one FTPM container.
// The returned network's int8 weight planes ALIAS b (see the package
// comment's zero-copy contract); float planes are copies.
func Decode(b []byte) (*nn.QuantizedNetwork, Meta, error) {
	var meta Meta
	sections, err := ckpt.DecodeContainer(format, b)
	if err != nil {
		return nil, meta, err
	}
	if err := ckpt.Expect(sections, "arch", "weights", "scales", "biases", "bn", "meta"); err != nil {
		return nil, meta, fmt.Errorf("ftpm: %w", err)
	}
	if err := json.Unmarshal(sections["meta"], &meta); err != nil {
		return nil, meta, fmt.Errorf("ftpm: bad meta section: %w", err)
	}
	d := &decoder{r: ckpt.NewReader(sections["arch"]), weights: int8sOf(sections["weights"])}
	if d.scales, err = decodeF32(sections["scales"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: scales section: %w", err)
	}
	if d.biases, err = decodeF32(sections["biases"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: biases section: %w", err)
	}
	if d.bn, err = decodeF32(sections["bn"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: bn section: %w", err)
	}
	n := d.u32()
	if n < 1 || n > maxLayers {
		return nil, meta, fmt.Errorf("ftpm: implausible layer count %d", n)
	}
	q := &nn.QuantizedNetwork{Layers: make([]nn.QLayer, n)}
	for i := range q.Layers {
		if q.Layers[i], err = d.layer(true); err != nil {
			return nil, meta, err
		}
	}
	if err := d.r.Done(); err != nil {
		return nil, meta, fmt.Errorf("ftpm: arch section: %w", err)
	}
	// Every blob must be fully consumed: leftover bytes mean the arch
	// and the planes disagree, which is corruption, not slack.
	if d.wOff != len(d.weights) || d.sOff != len(d.scales) ||
		d.bOff != len(d.biases) || d.bnOff != len(d.bn) {
		return nil, meta, fmt.Errorf("ftpm: blob sizes disagree with arch (weights %d/%d, scales %d/%d, biases %d/%d, bn %d/%d)",
			d.wOff, len(d.weights), d.sOff, len(d.scales), d.bOff, len(d.biases), d.bnOff, len(d.bn))
	}
	return q, meta, nil
}

// decoder rebuilds layers from the arch section in one pass, walking
// each blob with its own cursor. A truncated record fails the Reader
// and reads as zeros, which the dimension checks or Decode's final
// Done reject.
type decoder struct {
	r                       *ckpt.Reader
	weights                 []int8
	scales, biases, bn      []float32
	wOff, sOff, bOff, bnOff int
}

func (d *decoder) u32() int { return int(d.r.U32()) }

func (d *decoder) layer(allowBlock bool) (nn.QLayer, error) {
	switch kind := d.r.U8(); kind {
	case kindConv:
		inC, outC, kh, kw, stride, pad := d.u32(), d.u32(), d.u32(), d.u32(), d.u32(), d.u32()
		hasBias, xScale := d.r.Bool(), d.r.F32()
		if !dimOK(inC, outC, kh, kw, stride) || pad < 0 || pad > maxDim {
			return nil, fmt.Errorf("ftpm: implausible conv dims in=%d out=%d k=%dx%d stride=%d pad=%d", inC, outC, kh, kw, stride, pad)
		}
		wq, ws, bias, err := d.gemm("conv", outC, inC*kh*kw, hasBias, xScale)
		if err != nil {
			return nil, err
		}
		return nn.NewQConv2D(inC, outC, kh, kw, stride, pad, wq, ws, bias, xScale), nil
	case kindLinear:
		in, out := d.u32(), d.u32()
		hasBias, xScale := d.r.Bool(), d.r.F32()
		if !dimOK(in, out) {
			return nil, fmt.Errorf("ftpm: implausible linear dims in=%d out=%d", in, out)
		}
		wq, ws, bias, err := d.gemm("linear", out, in, hasBias, xScale)
		if err != nil {
			return nil, err
		}
		return nn.NewQLinear(in, out, wq, ws, bias, xScale), nil
	case kindBN:
		c := d.u32()
		if !dimOK(c) {
			return nil, fmt.Errorf("ftpm: implausible bn channels %d", c)
		}
		scale, err := takeF(d.bn, &d.bnOff, c, "bn")
		if err != nil {
			return nil, err
		}
		shift, err := takeF(d.bn, &d.bnOff, c, "bn")
		if err != nil {
			return nil, err
		}
		return nn.NewQBatchNorm(scale, shift), nil
	case kindReLU:
		return nn.NewQReLU(), nil
	case kindGAP:
		return nn.NewQGlobalAvgPool(), nil
	case kindFlatten:
		return nn.NewQFlatten(), nil
	case kindIdentity:
		return nn.NewQIdentity(), nil
	case kindBlock:
		if !allowBlock {
			return nil, fmt.Errorf("ftpm: nested block")
		}
		inC, outC, stride := d.u32(), d.u32(), d.u32()
		if n := d.r.U8(); n != 4 {
			return nil, fmt.Errorf("ftpm: block sub-count %d, want 4", n)
		}
		if !dimOK(inC, outC, stride) {
			return nil, fmt.Errorf("ftpm: implausible block dims in=%d out=%d stride=%d", inC, outC, stride)
		}
		var parts [4]nn.QLayer
		for i := range parts {
			var err error
			if parts[i], err = d.layer(false); err != nil {
				return nil, err
			}
		}
		conv1, ok1 := parts[0].(*nn.QConv2D)
		bn1, ok2 := parts[1].(*nn.QBatchNorm)
		conv2, ok3 := parts[2].(*nn.QConv2D)
		bn2, ok4 := parts[3].(*nn.QBatchNorm)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, fmt.Errorf("ftpm: block must contain conv,bn,conv,bn")
		}
		return nn.NewQBasicBlock(conv1, bn1, conv2, bn2, inC, outC, stride), nil
	default:
		return nil, fmt.Errorf("ftpm: unknown layer kind %d", kind)
	}
}

// gemm checks a conv or linear layer's activation scale and takes its
// weights, per-row scales and optional bias from the blobs.
func (d *decoder) gemm(what string, rows, cols int, hasBias bool, xScale float32) (wq []int8, ws, bias []float32, err error) {
	if !scaleOK(xScale) {
		return nil, nil, nil, fmt.Errorf("ftpm: %s activation scale %v out of range", what, xScale)
	}
	// rows ≤ maxDim and cols ≤ maxDim³: compare before multiplying,
	// which could overflow.
	if cols > (len(d.weights)-d.wOff)/rows {
		return nil, nil, nil, fmt.Errorf("ftpm: weights blob exhausted (need %d×%d at %d of %d)", rows, cols, d.wOff, len(d.weights))
	}
	n := rows * cols
	wq = d.weights[d.wOff : d.wOff+n]
	d.wOff += n
	if ws, err = takeF(d.scales, &d.sOff, rows, "scales"); err != nil {
		return nil, nil, nil, err
	}
	if hasBias {
		if bias, err = takeF(d.biases, &d.bOff, rows, "biases"); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, s := range ws {
		if !scaleOK(s) {
			return nil, nil, nil, fmt.Errorf("ftpm: %s weight scale %v out of range", what, s)
		}
	}
	return wq, ws, bias, nil
}

func takeF(buf []float32, off *int, n int, what string) ([]float32, error) {
	if n < 0 || *off+n > len(buf) {
		return nil, fmt.Errorf("ftpm: %s blob exhausted (need %d at %d of %d)", what, n, *off, len(buf))
	}
	s := buf[*off : *off+n]
	*off += n
	return s, nil
}

// dimOK validates one dimension against the hardening bound.
func dimOK(vs ...int) bool {
	for _, v := range vs {
		if v < 1 || v > maxDim {
			return false
		}
	}
	return true
}

func scaleOK(s float32) bool {
	return s > 0 && !math.IsInf(float64(s), 0) && !math.IsNaN(float64(s))
}

// Save writes the network to path with ckpt.WriteFile, so a crash
// mid-export leaves either the old file or the new one, never a torn
// model.
func Save(path string, q *nn.QuantizedNetwork, meta Meta) error {
	data, err := Encode(q, meta)
	if err != nil {
		return err
	}
	return ckpt.WriteFile(path, data)
}

// Model is a loaded FTPM file: the reconstructed network plus the
// backing mapping it aliases.
type Model struct {
	Net    *nn.QuantizedNetwork
	Meta   Meta
	Mapped bool // true when the weights alias an mmap'd region

	unmap func() error
}

// Close releases the backing mapping. The network's int8 planes alias
// it, so the network (and every Clone — clones share the planes) must
// not be used after Close.
func (m *Model) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// Load opens an exported model, zero-copy: on unix the file is mmap'd
// PROT_READ and the int8 weight planes alias the mapping (cold-start
// cost is one page-table setup plus decoding the small float/JSON
// sections, independent of weight volume); elsewhere — or if mmap
// fails — it falls back to reading the file into memory.
func Load(path string) (*Model, error) {
	b, unmap, err := mmapFile(path)
	mapped := err == nil
	if err != nil {
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	net, meta, err := Decode(b)
	if err != nil {
		if mapped {
			unmap()
		}
		return nil, err
	}
	m := &Model{Net: net, Meta: meta, Mapped: mapped}
	if mapped {
		m.unmap = unmap
	}
	return m, nil
}

// bytesOfS8 views an int8 slice as bytes without copying (encode side).
func bytesOfS8(s []int8) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// int8sOf views a byte slice as int8 without copying (decode side —
// this is the zero-copy aliasing step; int8 has alignment 1, so the
// cast is valid at any offset).
func int8sOf(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}

// appendF32 appends float32 values to dst as little-endian bytes.
func appendF32(dst []byte, vs []float32) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// decodeF32 decodes a little-endian float32 blob into a fresh slice
// (copied: payload offsets carry no 4-byte alignment guarantee, and
// the floats are per-channel — tiny next to the int8 planes).
func decodeF32(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}
