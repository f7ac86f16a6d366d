package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: with
// fewer, the figure is set by a handful of outliers and cannot repeat.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minTail
// samples beyond it, so the highest percentile a sample supports is a
// property of the sample, not of the caller's optimism.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile %g of %d samples has %d beyond it, need %d", q, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for none. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOfBatches times batches runs of fn and returns the median, so one
// descheduled batch cannot set a probe's figure.
func medianOfBatches(batches int, fn func() float64) float64 {
	vs := make([]float64, batches)
	for i := range vs {
		vs[i] = fn()
	}
	return median(vs)
}
