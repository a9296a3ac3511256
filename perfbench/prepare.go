package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Model preparation: the repro c10 ResNet-20 every workload starts
// from, trained through experiments.Env into a cache the benchmark owns,
// and its int8 export. Preparation is idempotent and is not part of any
// metric.

const (
	preset  = "repro"
	dataset = "c10"
	// calibImages matches `ftpim export`'s default calibration set.
	calibImages = 256
)

// prepared locates the prepared models.
type prepared struct {
	cacheDir string // experiments.Env cache (gob)
	ftpmPath string // int8 export of the cached model
}

// newEnv returns a fresh environment over the benchmark's model cache,
// with Monte-Carlo workers set to every core.
func (p prepared) newEnv(nproc int) *experiments.Env {
	env := experiments.NewEnv(preset, p.cacheDir, nil)
	env.Scale.Workers = nproc
	return env
}

// prepare makes sure both models exist. The float model comes from
// Env.Pretrained, which trains on a cache miss — including a miss after
// a cache-key change, so a file in an older format is never decoded.
// The FTPM export carries a stamp with the digest of the float weights
// it was made from and is rebuilt whenever the stamp does not match or
// the file does not load.
func prepare(state string, nproc int) (prepared, error) {
	p := prepared{cacheDir: filepath.Join(state, "models")}
	p.ftpmPath = filepath.Join(p.cacheDir, preset+"-"+dataset+".ftpm")
	env := p.newEnv(nproc)
	net, err := env.Pretrained(context.Background(), dataset)
	if err != nil {
		return p, err
	}
	sum := sha256.Sum256(net.Snapshot())
	digest := hex.EncodeToString(sum[:])
	stamp := p.ftpmPath + ".src"
	if b, err := os.ReadFile(stamp); err == nil && string(b) == digest {
		if m, err := ftpm.Load(p.ftpmPath); err == nil {
			return p, m.Close()
		}
	}
	train, test := env.Dataset(dataset)
	c, h, w := train.Dims()
	stride := c * h * w
	var calib []*tensor.Tensor
	for at := 0; at < calibImages; at += env.Scale.Batch {
		n := min(env.Scale.Batch, calibImages-at)
		var t tensor.Tensor
		t.SetView(train.Images.Data()[at*stride:(at+n)*stride], n, c, h, w)
		calib = append(calib, &t)
	}
	q, err := nn.QuantizeNetwork(net, calib)
	if err != nil {
		return p, fmt.Errorf("quantize: %v", err)
	}
	meta := ftpm.Meta{
		Model:    fmt.Sprintf("resnet%d", env.Scale.DepthC10),
		Dataset:  dataset,
		Classes:  test.Classes,
		FloatAcc: metrics.Evaluate(net, test, 128),
		QuantAcc: metrics.Evaluate(q, test, 128),
		Created:  time.Now().UTC().Format(time.RFC3339),
	}
	if err := ftpm.Save(p.ftpmPath, q, meta); err != nil {
		return p, err
	}
	return p, os.WriteFile(stamp, []byte(digest), 0o644)
}
