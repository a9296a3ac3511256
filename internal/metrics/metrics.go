// Package metrics provides evaluation helpers (batched accuracy),
// summary statistics for repeated defect runs, and the paper's
// Stability Score.
package metrics

import (
	"math"
	"sort"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Forwarder is the inference surface the evaluation loop needs: one
// batched forward pass. Both *nn.Network (float32) and
// *nn.QuantizedNetwork (int8) satisfy it, so every accuracy protocol
// in this package applies to either numeric representation.
type Forwarder interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
}

// Evaluate returns the top-1 accuracy of net on ds, evaluated in
// inference mode with the given batch size.
func Evaluate(net Forwarder, ds *data.Dataset, batch int) float64 {
	return EvaluateHooked(net, ds, batch, nil)
}

// BatchHook observes the batched evaluation loop: BeforeBatch runs
// just before the forward pass of batch `step` (0-based), AfterBatch
// right after its predictions are scored. This is the seam transient
// fault scenarios use to redraw a lesion per inference pass; hooks
// must leave the network's weights bitwise restored by the time
// AfterBatch returns.
type BatchHook interface {
	BeforeBatch(step int)
	AfterBatch(step int)
}

// EvaluateHooked is Evaluate with a per-batch hook; a nil hook is
// exactly Evaluate. The hook receives consecutive step indices in
// dataset order, so a positional-RNG hook produces the same lesion
// sequence on every call.
func EvaluateHooked(net Forwarder, ds *data.Dataset, batch int, h BatchHook) float64 {
	if batch <= 0 {
		batch = 64
	}
	n := ds.N()
	c, hh, w := ds.Dims()
	stride := c * hh * w
	correct := 0
	var x tensor.Tensor // reused view over the dataset, no per-batch alloc
	for start, step := 0, 0; start < n; start, step = start+batch, step+1 {
		bs := batch
		if start+bs > n {
			bs = n - start
		}
		x.SetView(ds.Images.Data()[start*stride:(start+bs)*stride], bs, c, hh, w)
		if h != nil {
			h.BeforeBatch(step)
		}
		out := net.Forward(&x, false)
		for i := 0; i < bs; i++ {
			if out.ArgMaxRow(i) == ds.Labels[start+i] {
				correct++
			}
		}
		if h != nil {
			h.AfterBatch(step)
		}
	}
	return float64(correct) / float64(n)
}

// Summary aggregates repeated measurements (e.g. defect-run accuracy).
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P50  float64
}

// Summarize computes a Summary over values.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, v := range values {
		d := v - s.Mean
		sq += float64(d * d)
	}
	if s.N > 1 {
		s.Std = math.Sqrt(sq / float64(s.N-1))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if s.N%2 == 1 {
		s.P50 = sorted[s.N/2]
	} else {
		s.P50 = 0.5 * (sorted[s.N/2-1] + sorted[s.N/2])
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean (normal approximation).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// StabilityScore implements the paper's Eq. (1):
//
//	SS(Psa) = Acc_retrain / (Acc_pretrain − Acc_defect).
//
// All accuracies share one unit (fraction or percent — the score is
// only unit-free if Acc units match; the paper uses percent). A higher
// score means less degradation from the ideal accuracy while keeping an
// appealing retrained accuracy. When the defect accuracy matches or
// exceeds the pretrained accuracy the degradation is zero and the
// score is +Inf.
func StabilityScore(accRetrain, accPretrain, accDefect float64) float64 {
	denom := accPretrain - accDefect
	if denom <= 0 {
		return math.Inf(1)
	}
	return accRetrain / denom
}
