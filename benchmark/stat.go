package main

import (
	"math"
	"sort"
)

// dist summarises the samples of one metric: the median with its quartiles
// and the sample count, as every timing in the ledger is reported.
type dist struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the spreads
// printed here are the spreads the accepting driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(xs []float64, unit string) dist {
	q1, q3 := quartiles(xs)
	return dist{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: unit, Samples: xs}
}

// spread is the quartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.N < 2 || d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// beyond it, and the value there. Below 2·tailBeyond samples that percentile
// would sit under the median and says nothing about a tail, so ok is false.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < 2*tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}
