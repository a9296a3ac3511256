package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/tensor"
)

// The exact tier's whole-network contract: the bits of a float forward
// pass and of one training step on the repro ResNet-20 ×0.25 are fixed.
// The kernel oracles pin each kernel against its reference; these
// digests pin everything between them too (layer order, BN, ReLU,
// shortcuts, the loss and SGD), at every batch size and worker count
// and in every build (asm or noasm). A change that moves one of them
// changes committed result bytes and must say so.

// forwardDigests maps batch size to the SHA-256 of the eval-mode
// logits of a freshly initialised net on that batch's seeded inputs.
var forwardDigests = map[int]string{
	1:   "a750e0c7042cb6688ad0ebbd0119d67b11c3f7bc62eb40f5132833d4ca06612a",
	7:   "c71d105194663fec1d80be7cb12ebf43b6df3031c6ddf3aa3794b87852f3abb5",
	32:  "43ce49e6cf3a5724fb9fe4120d821739d0d2256e5c2dc71bdd11e5bbf04ff32d",
	128: "1a174b0885f423ef5cae0ab2eeb98492973a133d6be9fb13a09b55deab8ccd09",
}

// stepDigest is the SHA-256 of the network state (parameters, then BN
// running statistics) after one SGD step at batch 32.
const stepDigest = "02fe64457c37d051607813f3ed309851f10c80fffdf7b599e1c9bdcae768740a"

// digestInput returns n seeded 3×12×12 images, the repro preset's input
// shape.
func digestInput(n int) *tensor.Tensor {
	x := tensor.New(n, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(uint64(1000+n)), 0, 1)
	return x
}

// hashFloats feeds the little-endian bits of each slice to a SHA-256.
func hashFloats(slices ...[]float32) string {
	h := sha256.New()
	var b [4]byte
	for _, s := range slices {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateDigest hashes every parameter and every BN running statistic.
func stateDigest(net *nn.Network) string {
	var s [][]float32
	for _, p := range net.Params() {
		s = append(s, p.W.Data())
	}
	for _, bn := range net.BatchNorms() {
		m, v := bn.Stats()
		s = append(s, m.Data(), v.Data())
	}
	return hashFloats(s...)
}

// digestWorkers are the kernel worker counts the digests hold at: the
// serial path, the pool's helpers, and counts above the core count.
var digestWorkers = []int{1, 2, 3, 8}

func TestExactForwardDigests(t *testing.T) {
	for _, workers := range digestWorkers {
		old := tensor.SetWorkers(workers)
		net := BuildResNet(ResNet20(10).Scaled(0.25))
		for _, n := range []int{1, 7, 32, 128} {
			got := hashFloats(net.Forward(digestInput(n), false).Data())
			if got != forwardDigests[n] {
				t.Errorf("workers=%d batch=%d: logits digest %s, want %s", workers, n, got, forwardDigests[n])
			}
		}
		tensor.SetWorkers(old)
	}
}

// trainStepDigest runs one SGD step at batch 32 on a fresh net and
// returns the state digest.
func trainStepDigest() string {
	net := BuildResNet(ResNet20(10).Scaled(0.25))
	labels := make([]int, 32)
	rng := tensor.NewRNG(77)
	for i := range labels {
		labels[i] = int(rng.Uint64() % 10)
	}
	opt := optim.NewSGD(net.Params(), 0.1, 0.9, 5e-4)
	opt.ZeroGrad()
	_, dLogits := nn.SoftmaxCrossEntropy(net.Forward(digestInput(32), true), labels)
	net.Backward(dLogits)
	opt.Step()
	return stateDigest(net)
}

func TestExactTrainStepDigest(t *testing.T) {
	for _, workers := range digestWorkers {
		old := tensor.SetWorkers(workers)
		if got := trainStepDigest(); got != stepDigest {
			t.Errorf("workers=%d: state digest after one SGD step %s, want %s", workers, got, stepDigest)
		}
		tensor.SetWorkers(old)
	}
}

// TestExactTrainStepDigestConcurrent runs two train steps at once on
// separate networks, as Monte-Carlo workers and serve executors share
// the kernel pool: each must keep the serial bits.
func TestExactTrainStepDigestConcurrent(t *testing.T) {
	old := tensor.SetWorkers(2)
	defer tensor.SetWorkers(old)
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = trainStepDigest()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != stepDigest {
			t.Errorf("step %d of 2 at once: state digest %s, want %s", i, g, stepDigest)
		}
	}
}
