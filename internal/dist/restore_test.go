package dist_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/dist"
	"github.com/ftpim/ftpim/internal/obs"
)

// TestCkptNonCanonicalStateIgnored pins the all-or-nothing restore: a
// checkpoint whose dist.state section carries a trailing byte, or a
// folded flag other than 0 or 1, passes the container's CRCs but is
// not what the coordinator writes. A restarted coordinator logs and
// ignores it, restores nothing, and still folds the oracle sweep.
func TestCkptNonCanonicalStateIgnored(t *testing.T) {
	want := oracle(t)

	// A real coordinator writes the checkpoint, cancelled after its
	// second lease folds.
	dir := t.TempDir()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	cfg1 := baseConfig(nil)
	cfg1.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("dist")
	_, addr, wait1 := startCoordinator(t, ctx1, cfg1)
	inner := evalFunc(t)
	var evaluated atomic.Int64
	fn := func(c context.Context, l dist.Lease) ([]float64, error) {
		accs, err := inner(c, l)
		if evaluated.Add(1) == 2 {
			cancel1()
		}
		return accs, err
	}
	werr := make(chan error, 1)
	go func() { werr <- dist.RunWorker(ctx1, workerCfg(t, "w0", addr, fn)) }()
	if _, err := wait1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first coordinator err = %v, want context.Canceled", err)
	}
	<-werr
	sections, _, ok := ckpt.NewStore(dir, 100, true, nil).Run("dist").Load()
	if !ok {
		t.Fatal("first coordinator wrote no checkpoint")
	}
	state := sections["dist.state"]
	// Layout: u32 rate count, then per rate a u32 run count and one
	// (folded byte, f64 accuracy) cell per run. Offset 8 is the first
	// cell's folded byte — rate 0's only run, folded by the first lease.
	if len(state) < 9 || state[8] != 1 {
		t.Fatalf("unexpected dist.state layout: % x", state)
	}
	trailing := append(append([]byte(nil), state...), 0)
	badFlag := append([]byte(nil), state...)
	badFlag[8] = 2

	for _, tc := range []struct {
		name  string
		state []byte
	}{{"trailing byte", trailing}, {"folded byte 2", badFlag}} {
		t.Run(tc.name, func(t *testing.T) {
			vdir := t.TempDir()
			variant := map[string][]byte{}
			for k, v := range sections {
				variant[k] = v
			}
			variant["dist.state"] = tc.state
			// Save re-encodes through ckpt.Encode, so every CRC is valid.
			if _, _, err := ckpt.NewStore(vdir, 100, false, nil).Run("dist").Save(variant); err != nil {
				t.Fatalf("write variant: %v", err)
			}

			rec := &obs.Recorder{}
			cfg := baseConfig(rec)
			cfg.Ckpt = ckpt.NewStore(vdir, 100, true, nil).Run("dist")
			ctx := context.Background()
			co, addr, wait := startCoordinator(t, ctx, cfg)
			if s := co.Stats(); s.Restored != 0 {
				t.Fatalf("restored %d runs from a non-canonical checkpoint", s.Restored)
			}
			logged := false
			for _, e := range rec.Events() {
				logged = logged || e.Kind == obs.KindLog && strings.Contains(e.Msg, "ignoring checkpoint")
			}
			if !logged {
				t.Fatal("no \"ignoring checkpoint\" log line")
			}
			werr := make(chan error, 1)
			go func() { werr <- dist.RunWorker(ctx, workerCfg(t, "w1", addr, evalFunc(t))) }()
			got, err := wait()
			if err != nil {
				t.Fatalf("restarted coordinator: %v", err)
			}
			if err := <-werr; err != nil {
				t.Fatalf("worker: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
