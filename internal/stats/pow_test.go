package stats

import (
	"math"
	"strconv"
	"testing"
)

// powXs are the x values the exactness checks always cover: zero (an
// exponential variate can be exactly 0), the smallest subnormal, the
// largest subnormal and smallest normal, 1, the largest finite value,
// +Inf, NaN and a negative value.
var powXs = []float64{
	0, math.SmallestNonzeroFloat64, minNormal - math.SmallestNonzeroFloat64, minNormal,
	1, math.MaxFloat64, math.Inf(1), math.NaN(), -2.5,
	math.Nextafter(1, 0), math.Nextafter(1, 2), 0.3, 7.86, 1e300, 1e-300,
}

// powYs are the exponents: below 0.5, exactly 0.5, between 0.5 and 1,
// and at or above 1, plus the reciprocal shapes the paper's workloads use.
var powYs = []float64{
	math.SmallestNonzeroFloat64, 1e-9, 1 / 4.25, 1 / 3.0, math.Nextafter(0.5, 0),
	0.5,
	math.Nextafter(0.5, 1), 1 / 1.79, 1 / 1.76, 1 / 1.5, 1 / 1.0001, math.Nextafter(1, 0),
	1, 1.5, 2, 4.25, -0.3, 0, math.Inf(1), math.NaN(),
}

func checkPow(t *testing.T, x, y float64) {
	t.Helper()
	got, want := Pow(x, y), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Pow(%v, %v) = %v (%#016x), math.Pow = %v (%#016x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowMatchesMathPow checks the fast path bit for bit against
// math.Pow on every pair of the special values above, and on
// exponential variates — what Weibull.Sample passes — for the shapes of
// the scientific workload and a few others.
func TestPowMatchesMathPow(t *testing.T) {
	for _, x := range powXs {
		for _, y := range powYs {
			checkPow(t, x, y)
		}
	}
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	r := NewRNG(7)
	for _, shape := range []float64{4.25, 1.76, 1.79, 1.5, 3, 0.9999, 1.0001} {
		y := 1 / shape
		for i := 0; i < draws; i++ {
			checkPow(t, r.ExpFloat64(), y)
		}
	}
	// Uniformly random bit patterns reach the extremes of the exponent
	// range on both sides.
	for i := 0; i < draws; i++ {
		x := math.Float64frombits(r.Uint64() >> 1) // non-negative
		y := r.Float64()
		checkPow(t, x, y)
	}
}

// FuzzPow compares Pow with math.Pow bit for bit on arbitrary pairs.
func FuzzPow(f *testing.F) {
	for _, x := range powXs {
		for _, y := range []float64{0.2, 0.5, 0.7, 1, 3} {
			f.Add(x, y)
		}
	}
	f.Add(2.5, math.Nextafter(0.5, 0))
	f.Add(2.5, math.Nextafter(0.5, 1))
	f.Add(1e-310, 0.9999) // subnormal x, result near the subnormal range
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPow(t, x, y)
	})
}

// powSink keeps BenchmarkPow's results live.
var powSink float64

// BenchmarkPow times Pow against math.Pow on exponential variates, the
// arguments of a Weibull draw, for the shapes of the scientific
// workload's gaps (4.25) and sizes (1.76).
func BenchmarkPow(b *testing.B) {
	r := NewRNG(1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	for _, bc := range []struct {
		name string
		pow  func(x, y float64) float64
	}{{"fast", Pow}, {"math", math.Pow}} {
		for _, shape := range []float64{4.25, 1.76} {
			y := 1 / shape
			b.Run(bc.name+"/shape"+strconv.FormatFloat(shape, 'g', -1, 64), func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					sum += bc.pow(xs[i&1023], y)
				}
				powSink = sum
			})
		}
	}
}
