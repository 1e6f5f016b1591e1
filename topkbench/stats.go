package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile,
// so that the percentile is a measurement and not one outlier.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples. It fails when fewer than minBeyond samples lie above the
// rank, which is how a run too short to support the percentile it
// reports is caught.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank], nil
}

// The timed phase is cut into up to maxSlices slices of at least
// sliceRequests requests, so that each slice's p99 has ten requests
// beyond it. It is replayed in chunks, minChunks or more and a whole
// number per slice; on the read-only workloads a part of sliceEdits edit
// cycles follows each chunk, so that each part's p95 has ten edits beyond
// it. The end-to-end figures summarise the slices, or the parts, with
// their interquartile mean (iqm).
//
// Why: on a shared 2-core VM, other tenants slow everything in windows of
// a second or more, and the tail of one window can differ from the next.
// A percentile over a whole run reads whichever kind of window filled its
// tail; one taken per window and then averaged over the middle windows
// moves little when a window or two is slow.
const (
	maxSlices     = 5
	sliceRequests = 1000
	sliceEdits    = 220
	minChunks     = 9
)

// timedSlices is how many slices a timed list of n requests is cut into.
func timedSlices(n int) int {
	return min(maxSlices, max(1, n/sliceRequests))
}

// timedChunks is how many chunks a timed list of n requests is replayed
// in: the least multiple of its slice count that is at least minChunks.
func timedChunks(n int) int {
	s := timedSlices(n)
	return s * ((minChunks + s - 1) / s)
}

// partPercentiles cuts the samples, in the order they were taken, into n
// contiguous parts and returns each part's q-quantile.
func partPercentiles(samples []float64, q float64, n int) ([]float64, error) {
	qs := make([]float64, n)
	for i := range qs {
		var err error
		if qs[i], err = percentile(samples[i*len(samples)/n:(i+1)*len(samples)/n], q); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// iqm is the interquartile mean: the mean of the values left after the
// lowest and the highest quarter of them, rounded down, are dropped. Of
// three values it is their mean; of ten, the mean of the middle six.
func iqm(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// median returns the middle value (the mean of the two middle ones for
// an even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
