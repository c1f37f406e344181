package stats

import (
	"math"
	"testing"
)

func TestAutocorrelationBasics(t *testing.T) {
	// Perfect alternation has ACF(1) ≈ −1.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if got := Autocorrelation(alt, 1); got > -0.8 {
		t.Fatalf("alternating ACF(1) = %v, want ≈−1", got)
	}
	if got := Autocorrelation(alt, 0); got != 1 {
		t.Fatalf("ACF(0) = %v, want 1", got)
	}
	// A slow ramp is strongly positively autocorrelated at lag 1.
	ramp := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Autocorrelation(ramp, 1); got < 0.5 {
		t.Fatalf("ramp ACF(1) = %v, want strongly positive", got)
	}
	// Out of range and degenerate cases.
	if Autocorrelation(ramp, -1) != 0 || Autocorrelation(ramp, 100) != 0 {
		t.Fatal("out-of-range lag should be 0")
	}
	if Autocorrelation([]float64{5, 5, 5}, 1) != 0 {
		t.Fatal("constant series off-zero ACF")
	}
	if Autocorrelation([]float64{5, 5, 5}, 0) != 1 {
		t.Fatal("constant series ACF(0) should be 1")
	}
}

func TestACFWhiteNoise(t *testing.T) {
	r := NewRNG(12)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if got := Autocorrelation(xs, 0); got != 1 {
		t.Fatalf("ACF(0) = %v", got)
	}
	for l := 1; l <= 5; l++ {
		if got := Autocorrelation(xs, l); math.Abs(got) > 0.03 {
			t.Fatalf("white-noise ACF(%d) = %v, want ≈0", l, got)
		}
	}
}

func TestACFPeriodicSignal(t *testing.T) {
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	if got := Autocorrelation(xs, 24); got < 0.9 {
		t.Fatalf("seasonal ACF(period) = %v, want ≈1", got)
	}
	if got := Autocorrelation(xs, 12); got > -0.9 {
		t.Fatalf("half-period ACF = %v, want ≈−1", got)
	}
}

func TestBinCounts(t *testing.T) {
	bins := BinCounts([]float64{0.5, 1.5, 1.7, 9.9, -1, 10}, 10, 2)
	want := []float64{3, 0, 0, 0, 1}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	if BinCounts(nil, 0, 1) != nil || BinCounts(nil, 1, 0) != nil {
		t.Fatal("degenerate binning should return nil")
	}
}
