package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMoments draws n variates and returns their mean and variance.
func sampleMoments(t *testing.T, s Sampler, n int, seed uint64) (mean, variance float64) {
	t.Helper()
	r := NewRNG(seed)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(s.Sample(r))
	}
	return w.Mean(), w.Var()
}

func within(t *testing.T, got, want, relTol float64, what string) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1e-12 {
		denom = 1
	}
	if math.Abs(got-want)/denom > relTol {
		t.Fatalf("%s: got %v, want %v (rel tol %v)", what, got, want, relTol)
	}
}

func TestExponentialMoments(t *testing.T) {
	d := Exponential{Rate: 2.5}
	mean, v := sampleMoments(t, d, 300000, 1)
	within(t, mean, 0.4, 0.02, "exp mean")
	within(t, v, 0.16, 0.05, "exp var")
}

func TestUniformMoments(t *testing.T) {
	d := Uniform{Min: 3, Max: 9}
	mean, v := sampleMoments(t, d, 300000, 2)
	within(t, mean, 6, 0.01, "uniform mean")
	within(t, v, 3, 0.05, "uniform var") // (b-a)²/12 = 36/12
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: -4, Sigma: 2}
	mean, v := sampleMoments(t, d, 300000, 3)
	if math.Abs(mean-(-4)) > 0.02 {
		t.Fatalf("normal mean: got %v", mean)
	}
	within(t, v, 4, 0.05, "normal var")
}

func TestWeibullMoments(t *testing.T) {
	for _, d := range []Weibull{
		{Shape: 4.25, Scale: 7.86},
		{Shape: 1.76, Scale: 2.11},
		{Shape: 1.79, Scale: 24.16},
		{Shape: 1.0, Scale: 5.0}, // reduces to exponential mean 5
	} {
		mean, v := sampleMoments(t, d, 300000, 4)
		within(t, mean, d.Mean(), 0.02, "weibull mean")
		within(t, v, d.Var(), 0.06, "weibull var")
	}
}

// TestWeibullPaperModes verifies the parameterization against the modes the
// paper quotes for the scientific workload (Section V-B2): 7.379 s
// interarrival, 1.309 tasks per BoT, 15.298 jobs per off-peak half hour.
func TestWeibullPaperModes(t *testing.T) {
	cases := []struct {
		d    Weibull
		mode float64
	}{
		{Weibull{Shape: 4.25, Scale: 7.86}, 7.379},
		{Weibull{Shape: 1.76, Scale: 2.11}, 1.309},
		{Weibull{Shape: 1.79, Scale: 24.16}, 15.298},
	}
	for _, c := range cases {
		if got := c.d.Mode(); math.Abs(got-c.mode) > 5e-4 {
			t.Errorf("Weibull(%v, %v).Mode() = %.4f, paper quotes %.3f",
				c.d.Shape, c.d.Scale, got, c.mode)
		}
	}
}

func TestWeibullModeShapeBelowOne(t *testing.T) {
	if got := (Weibull{Shape: 0.9, Scale: 3}).Mode(); got != 0 {
		t.Fatalf("mode for shape<1 should be 0, got %v", got)
	}
}

func TestLogNormalMean(t *testing.T) {
	d := LogNormal{Mu: 0.5, Sigma: 0.4}
	mean, _ := sampleMoments(t, d, 300000, 5)
	within(t, mean, d.Mean(), 0.02, "lognormal mean")
}

func TestParetoMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 3}
	mean, _ := sampleMoments(t, d, 400000, 7)
	within(t, mean, 1.5, 0.03, "pareto mean")
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1}.Mean(), 1) {
		t.Fatal("pareto mean with alpha<=1 should be +Inf")
	}
}

func TestScaledSampler(t *testing.T) {
	d := Scaled{S: Deterministic{Value: 3}, Factor: 2.5}
	r := NewRNG(1)
	if got := d.Sample(r); got != 7.5 {
		t.Fatalf("scaled sample = %v, want 7.5", got)
	}
	if got := d.Mean(); got != 7.5 {
		t.Fatalf("scaled mean = %v, want 7.5", got)
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 42}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 42 {
			t.Fatal("deterministic sampler varied")
		}
	}
}

func TestTruncatedNormalFloor(t *testing.T) {
	d := TruncatedNormal{Mu: 0.1, Sigma: 5, Floor: 0}
	r := NewRNG(8)
	for i := 0; i < 100000; i++ {
		if v := d.Sample(r); v < 0 {
			t.Fatalf("truncated normal produced %v below floor", v)
		}
	}
}

// Property: Weibull samples are strictly positive and the inverse-CDF
// transform is monotone in its source uniform.
func TestWeibullPositiveProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(shapeSeed, scaleSeed uint16) bool {
		shape := 0.2 + float64(shapeSeed%1000)/100 // 0.2 .. 10.2
		scale := 0.1 + float64(scaleSeed%1000)/10  // 0.1 .. 100
		d := Weibull{Shape: shape, Scale: scale}
		for i := 0; i < 50; i++ {
			if v := d.Sample(r); v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: uniform samples always fall inside [Min, Max).
func TestUniformRangeProperty(t *testing.T) {
	r := NewRNG(100)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi == lo || math.IsInf(hi-lo, 0) {
			return true // degenerate or overflowing range
		}
		d := Uniform{Min: lo, Max: hi}
		for i := 0; i < 20; i++ {
			v := d.Sample(r)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, d := range []Gamma{
		{Shape: 0.25, Scale: 4},  // cv 2, unit mean
		{Shape: 4, Scale: 0.25},  // cv 0.5, unit mean
		{Shape: 1, Scale: 3},     // reduces to exponential mean 3
		{Shape: 7.3, Scale: 1.9}, // generic
	} {
		mean, v := sampleMoments(t, d, 300000, 11)
		within(t, mean, d.Mean(), 0.02, "gamma mean")
		within(t, v, d.Shape*d.Scale*d.Scale, 0.06, "gamma var")
	}
}

func TestUnitMeanGammaCV(t *testing.T) {
	for _, cv := range []float64{0.5, 1, 2, 3} {
		d := UnitMeanGamma(cv)
		mean, v := sampleMoments(t, d, 400000, 12)
		within(t, mean, 1, 0.02, "unit-mean gamma mean")
		within(t, math.Sqrt(v)/mean, cv, 0.05, "unit-mean gamma cv")
	}
}

func TestGammaPositiveProperty(t *testing.T) {
	r := NewRNG(13)
	for _, d := range []Gamma{{Shape: 0.1, Scale: 1}, {Shape: 0.9, Scale: 2}, {Shape: 12, Scale: 0.5}} {
		for i := 0; i < 20000; i++ {
			if x := d.Sample(r); x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("gamma%+v produced invalid variate %v", d, x)
			}
		}
	}
}
