package main

import (
	"math"
	"testing"
)

// TestCheckRunFlags: a scale or horizon that is negative or not finite,
// and fewer than one replication, are rejected in every mode; zero
// keeps meaning the scenario default.
func TestCheckRunFlags(t *testing.T) {
	for _, c := range []struct {
		scale, horizon float64
		reps           int
		ok             bool
	}{
		{0, 0, 3, true},
		{0.1, 21600, 1, true},
		{-1, 0, 3, false},
		{-0.02, 3600, 1, false},
		{math.NaN(), 600, 1, false},
		{math.Inf(1), 0, 1, false},
		{0.1, -5, 1, false},
		{0.1, math.NaN(), 1, false},
		{0.1, math.Inf(1), 1, false},
		{0.1, 0, 0, false},
		{0.1, 0, -3, false},
	} {
		if err := checkRunFlags(c.scale, c.horizon, c.reps); (err == nil) != c.ok {
			t.Errorf("checkRunFlags(%v, %v, %d) = %v, want ok=%v", c.scale, c.horizon, c.reps, err, c.ok)
		}
	}
}
