// Package stats provides small statistical helpers used throughout the
// Pipeleon reproduction: linear regression for cost-model calibration,
// entropy of traffic distributions, percentile extraction for the
// evaluation harness, and a Zipf sampler for traffic locality.
//
// Everything in this package is deterministic given a seed; the emulator and
// the experiment harness both depend on run-to-run reproducibility.
package stats

import (
	"errors"
	"math"
	"sort"
)

// LinearFit holds the result of an ordinary-least-squares fit y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// ErrDegenerate is returned when a regression input has fewer than two
// distinct x values, so no line is determined.
var ErrDegenerate = errors.New("stats: degenerate regression input")

// LinearRegression fits y = a*x + b by ordinary least squares.
// It is used to extrapolate the cost-model constants Lmat and Lact from
// benchmark suites (paper §3.1: "we then extrapolate Lmat and Lact with
// linear regression").
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrDegenerate
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, ErrDegenerate
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	// Coefficient of determination.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Entropy returns the Shannon entropy (base 2) of a discrete distribution.
// The input need not be normalized; non-positive weights are ignored.
// The paper (§5.4.3, appendix A.3) uses entropy over the pipelet traffic
// distribution to characterize how aggregated a workload is.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log2(p)
	}
	return h
}

// Percentile returns the q-th percentile (q in [0,100]) of values using
// linear interpolation between closest ranks. The input slice is not
// modified.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
