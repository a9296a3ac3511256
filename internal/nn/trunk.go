package nn

import (
	"github.com/ftpim/ftpim/internal/tensor"
)

// The inference trunk. At inference the fused steps of a Sequential (a
// bias-free Conv2D → BatchNorm2D → ReLU, and each BasicBlock) hand
// their activations to each other in batch-row planes (tensor.Plane):
// each row of a channel holds that row of every sample, one border
// apart, so a conv runs the batch as one wide image per channel. A
// step's epilogue stores its output into the interior of the plane the
// next step's first conv reads, with that conv's pad as its border, so
// a stride-1 conv reads it in place and a stride-2 one copies it into
// its phase rows. The first step reads its dense input where it lies,
// and only a step followed by another layer (the pool) writes a dense
// tensor.

// fusedStep is a run of layers that inference executes as fused convs:
// conv → bn → ReLU when block is nil, or a BasicBlock.
type fusedStep struct {
	conv  *Conv2D
	bn    *BatchNorm2D
	block *BasicBlock
}

// fusedStepAt returns the fused step that starts at ls[i] and the
// number of layers it spans, or a span of 0 when none starts there.
func fusedStepAt(ls []Layer, i int) (fusedStep, int) {
	if i >= len(ls) {
		return fusedStep{}, 0
	}
	if b, ok := ls[i].(*BasicBlock); ok {
		return fusedStep{block: b}, 1
	}
	if i+2 < len(ls) {
		conv, isConv := ls[i].(*Conv2D)
		bn, isBN := ls[i+1].(*BatchNorm2D)
		_, isReLU := ls[i+2].(*ReLU)
		if isConv && isBN && isReLU && conv.fuses(bn) {
			return fusedStep{conv: conv, bn: bn}, 3
		}
	}
	return fusedStep{}, 0
}

// first returns the step's first conv: its pad is the border of the
// plane the step reads.
func (s fusedStep) first() *Conv2D {
	if s.block != nil {
		return s.block.Conv1
	}
	return s.conv
}

// last returns the step's last conv.
func (s fusedStep) last() *Conv2D {
	if s.block != nil {
		return s.block.Conv2
	}
	return s.conv
}

// output returns the step's dense output for the input src, whose
// output is oh×ow: the last conv's workspace tensor.
func (s fusedStep) output(src tensor.Plane, oh, ow int) *tensor.Tensor {
	if s.block != nil {
		return s.block.Conv2.outputFor(src.N, oh, ow)
	}
	return s.conv.outputFor(src.N, src.H, src.W)
}

// infer is Sequential's inference forward: the fused steps run on
// planes from s.planes, the other layers one at a time.
func (s *Sequential) infer(x *tensor.Tensor) *tensor.Tensor {
	ls := s.Layers
	var cur tensor.Plane // the activation while it lies in a trunk plane
	inPlane := false
	for i := 0; i < len(ls); {
		step, span := fusedStepAt(ls, i)
		if span == 0 {
			x = ls[i].Forward(x, false)
			i++
			continue
		}
		i += span
		conv := step.first()
		src := cur
		if !inPlane {
			conv.checkInput(x)
			src = densePlane(x)
		} else if src.C != conv.InC {
			panic("nn: Conv2D input channels do not match the previous layer's output")
		}
		oh, ow := conv.outSize(src.H, src.W)
		oc := step.last().OutC
		var mid tensor.Plane
		if step.block != nil {
			mid = s.planes.get(src.N, oc, oh, ow, step.block.Conv2.Pad, src.Data, nil)
		}
		next, nspan := fusedStepAt(ls, i)
		if nspan == 0 {
			out := step.output(src, oh, ow)
			step.run(densePlane(out), src, mid)
			x, inPlane = out, false
			continue
		}
		cur = s.planes.get(src.N, oc, oh, ow, next.first().Pad, src.Data, mid.Data)
		step.run(cur, src, mid)
		inPlane = true
	}
	return x
}

// run runs the step from src into out; a block stores conv1's output
// into mid.
func (s fusedStep) run(out, src, mid tensor.Plane) {
	if s.block != nil {
		s.block.infer(out, src, mid)
		return
	}
	s.conv.fusedForward(out, src, s.bn, tensor.Plane{})
}

// planePool holds batch-row planes, up to three per geometry
// (channels, height, width and border), so that a block can read one
// plane and the shortcut's while it writes a third. A buffer's rows
// hold as many samples as the largest batch it has held (its span); a
// smaller batch uses the leading samples of each row, and the samples
// past it, which a conv reads only into columns it drops, are those of
// an earlier batch. So the layout of a buffer never changes: it is
// zeroed when it is allocated, and a conv stores only into plane
// interiors and puts +0 back in the gap columns between samples it
// writes, so its borders and gaps stay +0 for as long as it lives.
type planePool struct {
	sets []planeSet
}

type planeSet struct {
	c, h, w, pad int
	bufs         [3][]float32
	spans        [3]int
}

// get returns a plane of n samples of the geometry in a buffer that
// holds neither a nor b.
func (p *planePool) get(n, c, h, w, pad int, a, b []float32) tensor.Plane {
	set := p.set(c, h, w, pad)
	for i, buf := range set.bufs {
		if sameBuffer(buf, a) || sameBuffer(buf, b) {
			continue
		}
		pl := tensor.Plane{Data: buf, N: n, C: c, H: h, W: w, Pad: pad, Span: set.spans[i]}
		if pl.Span < n {
			pl.Span = n
			pl.Data = make([]float32, pl.Len())
			set.bufs[i], set.spans[i] = pl.Data, n
		}
		return pl
	}
	panic("nn: every plane of the geometry is in use")
}

// set returns the pool's set for the geometry, adding it when new.
func (p *planePool) set(c, h, w, pad int) *planeSet {
	for i := range p.sets {
		if s := &p.sets[i]; s.c == c && s.h == h && s.w == w && s.pad == pad {
			return s
		}
	}
	p.sets = append(p.sets, planeSet{c: c, h: h, w: w, pad: pad})
	return &p.sets[len(p.sets)-1]
}

// sameBuffer reports whether x and y start at the same element.
func sameBuffer(x, y []float32) bool {
	return len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
}
