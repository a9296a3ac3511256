package main

import (
	"context"
	"fmt"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// runExport implements 'ftpim export': quantize the env's pretrained
// model (trained, or loaded from the cache) against up to calibN
// training images, measure both top-1 accuracies on the test split, and
// save the int8 model as a single mmap-able FTPM file.
func runExport(ctx context.Context, env *experiments.Env, dataset, out string, calibN int) error {
	if dataset == "both" {
		dataset = "c10"
	}
	if out == "" {
		out = "model-" + dataset + ".ftpm"
	}
	net, err := env.Pretrained(ctx, dataset)
	if err != nil {
		return err
	}
	train, test := env.Dataset(dataset)

	// Calibration batches are views over the training images — the
	// activation-scale observer only reads them, so no copies needed.
	if calibN <= 0 || calibN > train.N() {
		calibN = train.N()
	}
	c, h, w := train.Dims()
	stride := c * h * w
	batch := env.Scale.Batch
	if batch <= 0 {
		batch = 32
	}
	var calib []*tensor.Tensor
	for at := 0; at < calibN; at += batch {
		n := batch
		if at+n > calibN {
			n = calibN - at
		}
		var t tensor.Tensor
		t.SetView(train.Images.Data()[at*stride:(at+n)*stride], n, c, h, w)
		calib = append(calib, &t)
	}
	q, err := nn.QuantizeNetwork(net, calib)
	if err != nil {
		return fmt.Errorf("quantize: %v", err)
	}

	depth := env.Scale.DepthC10
	if dataset == "c100" {
		depth = env.Scale.DepthC100
	}
	meta := ftpm.Meta{
		Model:    fmt.Sprintf("resnet%d", depth),
		Dataset:  dataset,
		Classes:  test.Classes,
		FloatAcc: core.EvalClean(net, test, batch),
		QuantAcc: metrics.Evaluate(q, test, batch),
		Created:  time.Now().UTC().Format(time.RFC3339),
	}
	if err := ftpm.Save(out, q, meta); err != nil {
		return err
	}
	fmt.Printf("exported %s (%s/%s, %d classes) -> %s\n",
		meta.Model, env.Scale.Name, dataset, meta.Classes, out)
	fmt.Printf("top-1: float32 %.2f%%  int8 %.2f%%  (delta %+.2fpp)\n",
		meta.FloatAcc*100, meta.QuantAcc*100, (meta.QuantAcc-meta.FloatAcc)*100)
	return nil
}
