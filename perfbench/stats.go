package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must have
// beyond it before it means anything: p99 needs 1000 samples, p99.9
// needs 10000.
const minTail = 10

// tailLevels are the percentiles the report considers, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// samplesBeyond is how many of n sorted samples lie strictly above the
// nearest-rank q-percentile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// rank is the 1-based nearest-rank index of the q-percentile of n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestTail returns the highest percentile in tailLevels that has at
// least minTail samples beyond it among n samples, or 0 when even the
// median has too few.
func highestTail(n int) float64 {
	for _, q := range tailLevels {
		if samplesBeyond(n, q) >= minTail {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank q-percentile of sorted (ascending)
// durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

func sortDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of vs (mean of the middle two for an even
// count) without modifying vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in the durations' unit.
func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// roundDurations renders durations to the millisecond for the report.
func roundDurations(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}
