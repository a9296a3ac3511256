package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/dist"
	"github.com/ftpim/ftpim/internal/experiments"
)

// TestUnknownPresetOrDatasetIsUsageError pins that a bad -preset or
// -dataset is a usage error (exit 2) reported before any work starts,
// not a panic from inside the experiment environment.
func TestUnknownPresetOrDatasetIsUsageError(t *testing.T) {
	defer func(args []string) { os.Args = args }(os.Args)
	for _, args := range [][]string{
		{"table1", "-preset", "bogus"},
		{"table1", "-preset", "smoke", "-dataset", "c999"},
	} {
		os.Args = append([]string{"ftpim"}, args...)
		if code := run(); code != 2 {
			t.Errorf("ftpim %v exited %d, want 2", args, code)
		}
	}
}

// TestWorkerSetupRejectsUnknownJob pins the worker side: the job comes
// over the network, so an unknown preset or dataset in it must make
// Setup return an error, which the worker treats as permanent.
func TestWorkerSetupRejectsUnknownJob(t *testing.T) {
	setup := workerSetup(experiments.NewEnv("smoke", t.TempDir(), nil), 0)
	for _, job := range []dist.Job{
		{Preset: "bogus", Dataset: "c10", Scenario: "chen"},
		{Preset: "smoke", Dataset: "c999", Scenario: "chen"},
	} {
		if _, err := setup(context.Background(), job); err == nil {
			t.Errorf("Setup(%+v) returned no error", job)
		}
	}
}

// TestServeAnnouncesBoundAddress pins that serve binds before it
// announces: an unusable -addr exits 1 without a "serving" line, and
// -addr 127.0.0.1:0 announces the port the kernel picked, which then
// answers /v1/healthz until the context is cancelled.
func TestServeAnnouncesBoundAddress(t *testing.T) {
	defer func(args []string, stderr *os.File) { os.Args, os.Stderr = args, stderr }(os.Args, os.Stderr)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	os.Stderr = w
	os.Args = []string{"ftpim", "serve", "-preset", "smoke", "-dataset", "c10",
		"-cache", t.TempDir(), "-v=false", "-addr", "127.0.0.1:99999"}
	code := run()
	w.Close()
	out, _ := io.ReadAll(r)
	if code != 1 || strings.Contains(string(out), "serving") {
		t.Fatalf("serve -addr 127.0.0.1:99999 exited %d with stderr:\n%s", code, out)
	}

	r, w, err = os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	os.Stderr = w
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		err := runServe(ctx, experiments.NewEnv("smoke", t.TempDir(), nil), "c10", serveOpts{addr: "127.0.0.1:0"})
		w.Close()
		done <- err
	}()
	addr := ""
	for sc := bufio.NewScanner(r); addr == "" && sc.Scan(); {
		if _, rest, ok := strings.Cut(sc.Text(), "serving smoke/c10 on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" || strings.HasSuffix(addr, ":0") {
		cancel()
		t.Fatalf("serve -addr 127.0.0.1:0 announced %q (runServe: %v)", addr, <-done)
	}
	if resp, err := http.Get("http://" + addr + "/v1/healthz"); err != nil {
		t.Errorf("announced %s, but healthz failed: %v", addr, err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz on %s: HTTP %d", addr, resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("runServe after cancel: %v", err)
	}
}
