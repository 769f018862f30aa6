package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of observations sorted on demand. Percentiles are
// nearest-rank, so every reported value is one that was measured.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) addDuration(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) count() int { return len(s.vals) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// and how many observations lie strictly beyond it — the guide asks
// for that count beside every tail figure. An empty sample yields 0, 0.
func (s *sample) percentile(p float64) (value float64, beyond int) {
	n := len(s.vals)
	if n == 0 {
		return 0, 0
	}
	s.sort()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.vals[rank-1], n - rank
}

func (s *sample) median() float64 {
	v, _ := s.percentile(50)
	return v
}

func (s *sample) max() float64 {
	v, _ := s.percentile(100)
	return v
}

// medianOf is the conventional median (mean of the two middle values
// for an even count); used for the handful of set-up times in a run.
func medianOf(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// relDiff is |a-b| as a share of their mean (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// ratio guards per-op divisions against an empty window.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}
