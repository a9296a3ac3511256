// Package report renders experiment results as aligned text tables,
// CSV, and quick ASCII line plots for the figure reproductions.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned table with an optional per-cell
// highlight set (the paper bolds the top-3 defect accuracies per
// column).
type Table struct {
	Title     string
	Header    []string
	Rows      [][]string
	highlight map[[2]int]bool
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header, highlight: map[[2]int]bool{}}
}

// AddRow appends a row; the cell count should match the header.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Highlight marks cell (row, col) for emphasis (rendered with a '*').
func (t *Table) Highlight(row, col int) {
	t.highlight[[2]int{row, col}] = true
}

// HighlightTopK marks the k largest numeric values in a column.
func (t *Table) HighlightTopK(col, k int, parse func(string) (float64, bool)) {
	type rv struct {
		row int
		v   float64
	}
	var vals []rv
	for i, r := range t.Rows {
		if col < len(r) {
			if v, ok := parse(r[col]); ok {
				vals = append(vals, rv{i, v})
			}
		}
	}
	for n := 0; n < k && n < len(vals); n++ {
		best := n
		for j := n + 1; j < len(vals); j++ {
			if vals[j].v > vals[best].v {
				best = j
			}
		}
		vals[n], vals[best] = vals[best], vals[n]
		t.Highlight(vals[n].row, col)
	}
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	cells := func(row []string, ri int) []string {
		out := make([]string, len(row))
		for ci, c := range row {
			if t.highlight[[2]int{ri, ci}] {
				c = "*" + c
			}
			out[ci] = c
		}
		return out
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	rendered := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		rendered[ri] = cells(r, ri)
		for ci, c := range rendered[ri] {
			if ci < len(widths) && len(c) > widths[ci] {
				widths[ci] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	var sb strings.Builder
	for i, h := range t.Header {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, r := range rendered {
		sb.Reset()
		for ci, c := range r {
			width := len(c)
			if ci < len(widths) {
				width = widths[ci]
			}
			fmt.Fprintf(&sb, "%-*s  ", width, c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

func lineWidth(widths []int) int {
	n := 0
	for _, w := range widths {
		n += w + 2
	}
	if n >= 2 {
		n -= 2
	}
	return n
}

// RenderCSV writes the table as CSV (no highlighting).
func (t *Table) RenderCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
}

// Series is one named line of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// AsciiPlot renders series as a crude terminal line chart: one row per
// X position, one column block per series, plus a bar for the first
// series. It is intentionally simple — the CSV output is the precise
// artifact; the plot is for eyeballing shape.
func AsciiPlot(w io.Writer, title string, series []Series, width int) {
	if width <= 0 {
		width = 40
	}
	fmt.Fprintln(w, title)
	if len(series) == 0 {
		return
	}
	ymax := math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Y {
			if v > ymax {
				ymax = v
			}
		}
	}
	if ymax <= 0 || math.IsInf(ymax, -1) {
		ymax = 1
	}
	fmt.Fprintf(w, "%-10s", "x")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", trunc(s.Name, 12))
	}
	fmt.Fprintln(w)
	for i := range series[0].X {
		fmt.Fprintf(w, "%-10.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %12.4f", s.Y[i])
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		// Bar for the first series.
		n := int(series[0].Y[i] / ymax * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  |%s\n", strings.Repeat("#", n))
	}
}

// SeriesCSV writes aligned series as CSV with an x column.
func SeriesCSV(w io.Writer, series []Series) {
	if len(series) == 0 {
		return
	}
	names := make([]string, 0, len(series)+1)
	names = append(names, "x")
	for _, s := range series {
		names = append(names, s.Name)
	}
	fmt.Fprintln(w, strings.Join(names, ","))
	for i := range series[0].X {
		parts := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				parts = append(parts, fmt.Sprintf("%g", s.Y[i]))
			} else {
				parts = append(parts, "")
			}
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

// ParsePercent parses strings like "92.53" for HighlightTopK.
func ParsePercent(s string) (float64, bool) {
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%f", &v); err != nil {
		return 0, false
	}
	return v, true
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
