package main

import (
	"context"
	"os"
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
