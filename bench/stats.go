package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0..100) of sorted values by the
// nearest-rank rule; NaN when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance driver computes spreads from. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

type interval struct{ start, end int64 }

func (iv interval) overlaps(start, end int64) bool { return start < iv.end && end > iv.start }

func overlapsAny(ivs []interval, start, end int64) bool {
	for _, iv := range ivs {
		if iv.overlaps(start, end) {
			return true
		}
	}
	return false
}

// chunkRates returns the rate, in units per second, of every chunk of a
// closed loop after the warm-up ones: ends[k] is when the k-th chunk of
// unitsPerChunk operations completed (ends[0] is the loop's start).
func chunkRates(ends []int64, unitsPerChunk float64, warmup int) []float64 {
	var rates []float64
	for k := warmup + 1; k < len(ends); k++ {
		if dt := float64(ends[k]-ends[k-1]) / 1e9; dt > 0 {
			rates = append(rates, unitsPerChunk/dt)
		}
	}
	return rates
}

func sortedFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	slices.Sort(out)
	return out
}
