package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is one or two outliers, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses a percentile with fewer than minBeyond samples
// beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d samples beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// percentileOr is percentile when strict. A smoke run is too short for
// percentiles and is no measurement: not strict, it gets the
// interpolated quantile instead of an error.
func percentileOr(samples []float64, p float64, strict bool) (float64, error) {
	v, err := percentile(samples, p)
	if err != nil && !strict {
		return quantile(samples, p/100), nil
	}
	return v, err
}

// quantile interpolates the q-quantile (0..1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summary is a metric's value over the repeats of one run: the raw
// values in repeat order, their median, and the quartiles.
type summary struct {
	Raw    []float64 `json:"raw"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(raw []float64) summary {
	return summary{Raw: raw, Median: quantile(raw, 0.5), Q1: quantile(raw, 0.25), Q3: quantile(raw, 0.75)}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
