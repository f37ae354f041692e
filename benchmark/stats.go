package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

func sortedCopy[T cmp.Ordered](vals []T) []T {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s
}

// fastQuartile is the round statistic of every reported metric: the
// value a quarter of the way in from the fast side of the per-round
// values (2nd fastest of 5..8 rounds, the fastest of 1..4). Interference
// on a shared box only ever adds time, so a low quantile repeats from
// process to process where the median does not.
func fastQuartile(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vals)
	k := (len(s) - 1) / 4
	if higherBetter {
		k = len(s) - 1 - k
	}
	return s[k]
}

// fastPerOp is fastQuartile applied position by position: every round
// executes the same script, so rounds[r][i] times the same piece of work
// for every r, and the result holds each piece's fast-side quartile
// across the rounds. A burst of interference lands on different pieces
// in different rounds; taken per piece it drops out, where a percentile
// or a sum taken inside one round keeps it.
func fastPerOp[T ~int32 | ~int64](rounds [][]T) []T {
	if len(rounds) == 0 {
		return nil
	}
	out, col := make([]T, len(rounds[0])), make([]T, len(rounds))
	for i := range out {
		for r := range rounds {
			col[r] = rounds[r][i]
		}
		slices.Sort(col)
		out[i] = col[(len(col)-1)/4]
	}
	return out
}

// median of vals (mean of the middle pair for even lengths).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vals)
	if h := len(s) / 2; len(s)%2 == 1 {
		return s[h]
	} else {
		return (s[h-1] + s[h]) / 2
	}
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of values
// sorted ascending.
func percentile[T any](sorted []T, p float64) T {
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, the spread the driver accepts a benchmark on.
func iqrShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := sortedCopy(vals)
	// Same method as Python's statistics.quantiles(values, n=4).
	q := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
