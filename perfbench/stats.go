package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the nearest-rank median of xs (sorting it in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestValidPercentile returns the highest percentile from
// tailPercentiles that has at least minBeyond of n samples beyond it, or 0
// when n is too small even for a median.
func highestValidPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// tail reports the p-th percentile of xs when at least minBeyond samples
// lie beyond it, and otherwise the highest percentile that has them. It
// returns the value and the percentile actually used (0 and NaN when xs
// is too small for any).
func tail(xs []float64, p float64) (value, used float64) {
	used = min(p, highestValidPercentile(len(xs)))
	if used == 0 {
		return math.NaN(), 0
	}
	return quantile(xs, used/100), used
}

// efficiency is the share of worker time spent in task bodies: the summed
// body time over workers x wall time (the TaskTorrent/StarPU definition).
func efficiency(bodyTotal time.Duration, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	return float64(bodyTotal) / (float64(workers) * float64(wall))
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: a letter or
// digit followed by letters, digits, '_', '.' or '-', at most 64 in all.
func validMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
