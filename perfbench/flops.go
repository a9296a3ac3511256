package main

import (
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// stageNames are the groups of top-level layers the per-layer metrics
// are reported for.
var stageNames = []string{"stem", "stage1", "stage2", "stage3", "head"}

// stageRanges splits top-level layers into [lo, hi) index ranges, one
// per stageNames entry: the layers before the first residual block are
// the stem, the blocks divide evenly into the three stages in order,
// and everything after the last block is the head.
func stageRanges(isBlock []bool) [][2]int {
	first, last := -1, -1
	for i, b := range isBlock {
		if b {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		panic("perfbench: network has no residual blocks")
	}
	per := (last - first + 1) / 3
	return [][2]int{
		{0, first},
		{first, first + per},
		{first + per, first + 2*per},
		{first + 2*per, last + 1},
		{last + 1, len(isBlock)},
	}
}

func floatStages(net *nn.Network) [][2]int {
	ls := net.Body.Layers
	isBlock := make([]bool, len(ls))
	for i, l := range ls {
		_, isBlock[i] = l.(*nn.BasicBlock)
	}
	return stageRanges(isBlock)
}

func quantStages(q *nn.QuantizedNetwork) [][2]int {
	isBlock := make([]bool, len(q.Layers))
	for i, l := range q.Layers {
		_, isBlock[i] = l.(*nn.QBasicBlock)
	}
	return stageRanges(isBlock)
}

// convShape is one convolution's geometry.
type convShape struct {
	inC, outC, k, stride, pad int
}

// geometry walks a float network's top-level layers from an h×w input
// and returns, per stage, the computed FLOPs for one image (2 per
// multiply-add, conv and linear layers only) and the shape and input
// size of the stage's last conv — its repeated stride-1 shape, which
// is what the kernel probes run. The head has no conv (zero shape).
func geometry(net *nn.Network, h, w int) (flops []float64, convs []convShape, hw []int) {
	ranges := floatStages(net)
	flops = make([]float64, len(ranges))
	convs = make([]convShape, len(ranges))
	hw = make([]int, len(ranges))
	conv := func(si int, cv *nn.Conv2D) {
		oh := tensor.ConvOutSize(h, cv.KH, cv.Stride, cv.Pad)
		ow := tensor.ConvOutSize(w, cv.KW, cv.Stride, cv.Pad)
		flops[si] += 2 * float64(cv.OutC*cv.InC*cv.KH*cv.KW*oh*ow)
		convs[si] = convShape{cv.InC, cv.OutC, cv.KH, cv.Stride, cv.Pad}
		hw[si] = h
		h, w = oh, ow
	}
	for si, r := range ranges {
		for _, l := range net.Body.Layers[r[0]:r[1]] {
			switch t := l.(type) {
			case *nn.Conv2D:
				conv(si, t)
			case *nn.BasicBlock:
				conv(si, t.Conv1)
				conv(si, t.Conv2)
			case *nn.Linear:
				flops[si] += 2 * float64(t.In*t.Out)
			case *nn.GlobalAvgPool2D:
				h, w = 1, 1
			}
		}
	}
	return flops, convs, hw
}
