package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %v, want %v", 100*c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {40000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if q1, q2, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v %v %v", q1, q2, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if spread([]float64{4}) != 0 {
		t.Error("spread of one value must be 0")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}
