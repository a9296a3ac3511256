package nn

import (
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over
// a batch of logits (N, classes) with integer labels, returning the
// loss and the gradient with respect to the logits.
//
// The gradient is (softmax(z) − onehot(y)) / N, the textbook fused
// form, which is numerically stable because softmax is computed with
// the row-max subtracted.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dLogits *tensor.Tensor) {
	return softmaxCrossEntropy(tensor.Softmax(logits, nil), labels)
}

// SoftmaxCrossEntropyWS is SoftmaxCrossEntropy drawing its probability
// buffer (which doubles as the returned gradient) from ws slot 0, so a
// warm training loop pays no allocation for the loss. The gradient is
// valid until the next call with the same workspace.
func SoftmaxCrossEntropyWS(ws *tensor.Workspace, logits *tensor.Tensor, labels []int) (loss float64, dLogits *tensor.Tensor) {
	probs := ws.Get(0, logits.Shape()...)
	tensor.Softmax(logits, probs)
	return softmaxCrossEntropy(probs, labels)
}

// softmaxCrossEntropy turns softmax probabilities into the mean loss and
// in-place gradient shared by both entry points above.
func softmaxCrossEntropy(probs *tensor.Tensor, labels []int) (loss float64, dLogits *tensor.Tensor) {
	n, c := probs.Dim(0), probs.Dim(1)
	if len(labels) != n {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	dLogits = probs // reuse: gradient is probs with label column shifted
	invN := float32(1 / float64(n))
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic("nn: label out of range")
		}
		p := float64(probs.At(i, y))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		row := dLogits.Row(i)
		row[y] -= 1
		for j := range row {
			row[j] *= invN
		}
	}
	return loss / float64(n), dLogits
}
