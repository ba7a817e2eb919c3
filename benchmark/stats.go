// stats.go — exact order statistics.  Latencies are kept as sorted
// samples, not log-bucketed histograms, whose p50 moves in 25% steps.
package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrPct is the interquartile range of v as a percentage of its
// median — the spread the benchmark driver gates on.
func iqrPct(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return 100 * (q3 - q1) / q2
}

// percentileMs is the q-quantile of a latency sample in milliseconds.
func percentileMs(sample []time.Duration, q float64) float64 {
	s := make([]float64, len(sample))
	for i, d := range sample {
		s[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(s)
	return quantile(s, q)
}

// medianOf maps each window to a number and returns the median, so one
// window stretched by a neighbour on the shared box cannot move it.
func medianOf[T any](windows []T, f func(T) float64) float64 { return median(mapSlice(windows, f)) }

func mapSlice[T any](in []T, f func(T) float64) []float64 {
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = f(x)
	}
	return out
}
