package nn

// Deep-cloning support. The parallel defect-evaluation protocol in
// internal/core gives every worker goroutine its own scratch network so
// fault injection and forward passes never share mutable state; the
// clones are bit-identical to the original (weights, masks, batch-norm
// running statistics), which keeps parallel evaluation results exactly
// equal to the serial path.

// Clone returns a deep copy of the parameter: weights, gradient and
// mask (when present) each get fresh storage.
func (p *Param) Clone() *Param {
	c := &Param{Name: p.Name, W: p.W.Clone(), Grad: p.Grad.Clone(), Decay: p.Decay}
	if p.Mask != nil {
		c.Mask = p.Mask.Clone()
	}
	return c
}

// Clone returns a deep copy of the network sharing no mutable state
// with the original.
func (n *Network) Clone() *Network {
	return &Network{Body: n.Body.CloneLayer().(*Sequential)}
}

// CloneLayer implements Layer.
func (s *Sequential) CloneLayer() Layer {
	c := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		c.Layers[i] = l.CloneLayer()
	}
	return c
}

// CloneLayer implements Layer.
func (c *Conv2D) CloneLayer() Layer {
	cc := &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
		Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Clone(),
	}
	if c.Bias != nil {
		cc.Bias = c.Bias.Clone()
	}
	return cc
}

// CloneLayer implements Layer.
func (l *Linear) CloneLayer() Layer {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight.Clone(), Bias: l.Bias.Clone()}
}

// CloneLayer implements Layer.
func (bn *BatchNorm2D) CloneLayer() Layer {
	return &BatchNorm2D{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		Gamma: bn.Gamma.Clone(), Beta: bn.Beta.Clone(),
		RunningMean: bn.RunningMean.Clone(),
		RunningVar:  bn.RunningVar.Clone(),
	}
}

// CloneLayer implements Layer.
func (b *BasicBlock) CloneLayer() Layer {
	return &BasicBlock{
		Conv1:      b.Conv1.CloneLayer().(*Conv2D),
		BN1:        b.BN1.CloneLayer().(*BatchNorm2D),
		Conv2:      b.Conv2.CloneLayer().(*Conv2D),
		BN2:        b.BN2.CloneLayer().(*BatchNorm2D),
		downsample: b.downsample,
		inC:        b.inC, outC: b.outC, stride: b.stride,
	}
}

// CloneLayer implements Layer.
func (r *ReLU) CloneLayer() Layer { return NewReLU() }

// CloneLayer implements Layer.
func (f *Flatten) CloneLayer() Layer { return NewFlatten() }

// CloneLayer implements Layer.
func (g *GlobalAvgPool2D) CloneLayer() Layer { return NewGlobalAvgPool2D() }
