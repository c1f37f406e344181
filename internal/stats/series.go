package stats

import "math"

// Autocorrelation returns the sample autocorrelation of xs at the given
// lag (biased estimator, the standard choice for ACF plots). Lag 0 is 1
// by definition; out-of-range lags return 0.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		if lag == 0 && n > 0 {
			return 1
		}
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - mean) * (xs[i+lag] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if den == 0 {
		if lag == 0 {
			return 1
		}
		return 0
	}
	return num / den
}

// BinCounts buckets event timestamps into fixed-width windows over
// [0, horizon), returning per-window counts — the preprocessing step for
// dispersion and ACF analysis of an arrival stream.
func BinCounts(times []float64, horizon, width float64) []float64 {
	if width <= 0 || horizon <= 0 {
		return nil
	}
	n := int(math.Ceil(horizon / width))
	bins := make([]float64, n)
	for _, t := range times {
		if t < 0 || t >= horizon {
			continue
		}
		bins[int(t/width)]++
	}
	return bins
}
