package main

import (
	"math"
	"testing"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		got, n := percentile(xs, tc.q)
		if n != len(xs) {
			t.Errorf("percentile(q=%v) counted %d samples, want %d", tc.q, n, len(xs))
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile(empty) = (%v, %d), want (0, 0)", v, n)
	}
	if v, n := percentile([]float64{7}, 0.9); v != 7 || n != 1 {
		t.Errorf("percentile(single) = (%v, %d), want (7, 1)", v, n)
	}
}
