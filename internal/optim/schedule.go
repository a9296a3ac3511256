package optim

import "math"

// Schedule maps an epoch index (0-based) to a learning rate.
type Schedule interface {
	LR(epoch int) float64
}

// Constant is a fixed learning rate.
type Constant float64

// LR implements Schedule.
func (c Constant) LR(int) float64 { return float64(c) }

// Cosine anneals from Initial to Final over Epochs following half a
// cosine period — the recipe the paper uses (initial LR 0.1 over 160
// epochs).
type Cosine struct {
	Initial float64
	Final   float64
	Epochs  int
}

// NewCosine builds a cosine schedule decaying to zero.
func NewCosine(initial float64, epochs int) *Cosine {
	return &Cosine{Initial: initial, Epochs: epochs}
}

// LR implements Schedule.
func (c *Cosine) LR(epoch int) float64 {
	if c.Epochs <= 1 {
		return c.Initial
	}
	if epoch >= c.Epochs {
		return c.Final
	}
	if epoch < 0 {
		epoch = 0
	}
	t := float64(epoch) / float64(c.Epochs-1)
	return c.Final + float64(0.5*(c.Initial-c.Final)*(1+math.Cos(math.Pi*t)))
}
