package experiments

// Golden-file test for the machine-readable event stream: a smoke-
// preset Table 1 run behind a JSONL sink must emit a schema-versioned,
// structurally reproducible record of everything it did. The golden
// file pins the structural fields (kind, phase, key, ordinals, rate);
// measured values (accuracies, seconds, timestamps) are checked for
// validity but deliberately left out of the comparison so the stream
// contract outlives retuning.
//
// Regenerate with:
//
//	go test ./internal/experiments -run TestTable1SmokeEventStream -update

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestTable1SmokeEventStream(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.SetClock(nil) // omit timestamps: the stream becomes deterministic
	e := NewEnv("smoke", "", sink)
	e.Scale.Workers = 1 // serial eval: events arrive in run order

	if _, err := Table1(bg, e, "c10"); err != nil {
		t.Fatalf("Table1: %v", err)
	}

	var keys []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Bytes()
		var rec struct {
			Schema string  `json:"schema"`
			T      string  `json:"t"`
			Kind   string  `json:"kind"`
			Phase  string  `json:"phase"`
			Key    string  `json:"key"`
			Epoch  int     `json:"epoch"`
			Stage  int     `json:"stage"`
			Run    int     `json:"run"`
			Rate   float64 `json:"rate"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if rec.Schema != obs.SchemaVersion {
			t.Fatalf("line carries schema %q, want %q: %s", rec.Schema, obs.SchemaVersion, line)
		}
		if rec.T != "" {
			t.Fatalf("nil clock must omit the t field: %s", line)
		}
		if rec.Kind == "" {
			t.Fatalf("line without kind: %s", line)
		}
		keys = append(keys, fmt.Sprintf("%s|%s|%s|%d|%d|%d|%g",
			rec.Kind, rec.Phase, rec.Key, rec.Epoch, rec.Stage, rec.Run, rec.Rate))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(keys) == 0 {
		t.Fatal("smoke Table 1 emitted no events")
	}
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "table1_smoke_events.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event stream diverges from golden at line %d:\n got %q\nwant %q\n(%d vs %d lines; regenerate with -update if intentional)",
					i+1, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("event stream length diverges from golden: got %d lines, want %d (regenerate with -update if intentional)",
			len(gl), len(wl))
	}
}
