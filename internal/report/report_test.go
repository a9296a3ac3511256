package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Demo", "method", "a", "b")
	t.AddRow("base", "10.0", "20.0")
	t.AddRow("ours", "30.0", "15.0")
	return t
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	sample().Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "method") {
		t.Fatalf("missing title/header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestHighlightMarks(t *testing.T) {
	tb := sample()
	tb.Highlight(1, 1)
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "*30.0") {
		t.Fatalf("highlight missing:\n%s", buf.String())
	}
}

func TestHighlightTopK(t *testing.T) {
	tb := NewTable("", "m", "v")
	tb.AddRow("a", "1.5")
	tb.AddRow("b", "9.5")
	tb.AddRow("c", "5.0")
	tb.AddRow("d", "x") // unparsable: skipped
	tb.HighlightTopK(1, 2, ParsePercent)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "*9.5") || !strings.Contains(out, "*5.0") {
		t.Fatalf("top-2 not highlighted:\n%s", out)
	}
	if strings.Contains(out, "*1.5") {
		t.Fatal("bottom value wrongly highlighted")
	}
}

func TestRenderCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`with,comma`, `with"quote`)
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	out := buf.String()
	if !strings.Contains(out, `"with,comma"`) || !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("csv escaping broken:\n%s", out)
	}
}

func TestAsciiPlotAndCSV(t *testing.T) {
	series := []Series{
		{Name: "dense", X: []float64{0, 0.01, 0.1}, Y: []float64{0.9, 0.8, 0.3}},
		{Name: "pruned", X: []float64{0, 0.01, 0.1}, Y: []float64{0.9, 0.5, 0.1}},
	}
	var buf bytes.Buffer
	AsciiPlot(&buf, "fig", series, 20)
	out := buf.String()
	if !strings.Contains(out, "fig") || !strings.Contains(out, "#") {
		t.Fatalf("plot missing bars:\n%s", out)
	}
	buf.Reset()
	SeriesCSV(&buf, series)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "x,dense,pruned" || len(lines) != 4 {
		t.Fatalf("csv series broken:\n%s", buf.String())
	}
}

func TestParsePercent(t *testing.T) {
	if v, ok := ParsePercent(" 92.53 "); !ok || v != 92.53 {
		t.Fatalf("ParsePercent: %v %v", v, ok)
	}
	if _, ok := ParsePercent("n/a"); ok {
		t.Fatal("should fail on garbage")
	}
}

func TestAsciiPlotEmptySafe(t *testing.T) {
	var buf bytes.Buffer
	AsciiPlot(&buf, "empty", nil, 10)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("title missing")
	}
}
