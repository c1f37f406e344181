package forecast

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vmprov/internal/stats"
)

func feed(f Forecaster, xs ...float64) {
	for _, x := range xs {
		f.Observe(x)
	}
}

func TestNaive(t *testing.T) {
	n := &Naive{}
	feed(n, 1, 5, 3)
	if n.Predict() != 3 {
		t.Fatalf("naive = %v", n.Predict())
	}
}

func TestMovingAverage(t *testing.T) {
	m := &MovingAverage{Window: 3}
	feed(m, 1, 2, 3, 4)
	if got := m.Predict(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MA(3) = %v, want 3", got)
	}
	empty := &MovingAverage{}
	if empty.Predict() != 0 {
		t.Fatal("empty MA should predict 0")
	}
}

func TestHoltExtrapolatesRamp(t *testing.T) {
	h := &Holt{Alpha: 0.8, Beta: 0.8}
	for i := 1; i <= 20; i++ {
		h.Observe(float64(10 * i))
	}
	// On a clean linear ramp Holt must predict the next point closely.
	if got := h.Predict(); math.Abs(got-210) > 5 {
		t.Fatalf("holt ramp forecast = %v, want ≈210", got)
	}
}

func TestHoltConstantSeries(t *testing.T) {
	h := &Holt{}
	for i := 0; i < 30; i++ {
		h.Observe(7)
	}
	if got := h.Predict(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("holt constant = %v", got)
	}
}

func TestSeasonalNaive(t *testing.T) {
	s := &SeasonalNaive{Period: 4}
	feed(s, 1, 2, 3, 4, 10, 20)
	// Next step is index 6; one season back is index 2 → 3.
	if got := s.Predict(); got != 3 {
		t.Fatalf("seasonal naive = %v, want 3", got)
	}
	short := &SeasonalNaive{Period: 10}
	feed(short, 5, 6)
	if short.Predict() != 6 {
		t.Fatal("short history should fall back to last value")
	}
	if (&SeasonalNaive{Period: 3}).Predict() != 0 {
		t.Fatal("empty seasonal naive should predict 0")
	}
}

func TestSeasonalNaiveBeatsNaiveOnDiurnal(t *testing.T) {
	// A noiseless 24-step diurnal cycle: the seasonal forecaster is
	// exact; naive lags the slope.
	var series []float64
	for i := 0; i < 24*6; i++ {
		series = append(series, 100+50*math.Sin(2*math.Pi*float64(i)/24))
	}
	scores, err := Compare(series, 25, &SeasonalNaive{Period: 24}, &Naive{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Name != "seasonal-naive" {
		t.Fatalf("expected seasonal-naive to win: %+v", scores)
	}
	if scores[0].MAE > 1e-9 {
		t.Fatalf("seasonal-naive on exact cycle should have zero MAE: %v", scores[0].MAE)
	}
}

func TestARRecoversLinearProcess(t *testing.T) {
	// x_t = 5 + 0.8·x_{t−1}: AR(1) should learn it and beat naive.
	a := &AR{Order: 1, Fit: 60}
	x := 10.0
	var series []float64
	for i := 0; i < 80; i++ {
		series = append(series, x)
		x = 5 + 0.8*x
	}
	scores, err := Compare(series, 10, a, &Naive{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Name != "ar" {
		t.Fatalf("AR should win on an AR process: %+v", scores)
	}
}

func TestAREmptyAndSingular(t *testing.T) {
	a := &AR{Order: 2}
	if a.Predict() != 0 {
		t.Fatal("empty AR should predict 0")
	}
	feed(a, 4, 4, 4, 4, 4, 4, 4, 4)
	if got := a.Predict(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("constant AR fallback = %v, want 4", got)
	}
}

func TestBacktestScores(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5, 6}
	s, err := Backtest(&Naive{}, series, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Naive always lags a +1 ramp by exactly 1.
	within := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	within(s.MAE, 1, "MAE")
	within(s.RMSE, 1, "RMSE")
	if s.Steps != 5 {
		t.Fatalf("steps = %d", s.Steps)
	}
}

func TestBacktestTooShort(t *testing.T) {
	if _, err := Backtest(&Naive{}, []float64{1, 2}, 2); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestCompareOnNoisyWorkloadShape(t *testing.T) {
	// Noisy diurnal series modeled on the web workload's shape; Holt and
	// seasonal-naive must beat plain naive on MAE.
	r := stats.NewRNG(3)
	var series []float64
	for i := 0; i < 24*10; i++ {
		base := 800 + 350*math.Sin(2*math.Pi*float64(i)/24)
		series = append(series, base*(1+0.05*r.NormFloat64()))
	}
	scores, err := Compare(series, 30,
		&SeasonalNaive{Period: 24}, &Holt{Alpha: 0.6, Beta: 0.2}, &Naive{}, &MovingAverage{Window: 4}, &AR{Order: 3, Fit: 48})
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, s := range scores {
		rank[s.Name] = i
	}
	if rank["seasonal-naive"] > rank["naive"] {
		t.Fatalf("seasonal-naive should beat naive on diurnal data: %+v", scores)
	}
	tbl := Table(scores)
	if !strings.Contains(tbl, "seasonal-naive") || !strings.Contains(tbl, "MAE") {
		t.Fatalf("table rendering broken:\n%s", tbl)
	}
}

// rewinder is a forecaster with the snapshot seam every forecaster here
// implements (workload.Rewindable, which this package cannot import).
type rewinder interface {
	Forecaster
	Snapshot(store any) any
	Restore(store any)
}

// TestForecasterRewind is the restore check of every forecaster: one
// snapshotted before its first observation or mid-series, fed a
// divergent future and restored, must predict exactly what an
// uninterrupted twin does, before the next observation and after each
// one.
func TestForecasterRewind(t *testing.T) {
	makers := []func() rewinder{
		func() rewinder { return &Naive{} },
		func() rewinder { return &MovingAverage{Window: 4} },
		func() rewinder { return &Holt{Alpha: 0.5, Beta: 0.3} },
		func() rewinder { return &SeasonalNaive{Period: 5} },
		func() rewinder { return &AR{Order: 2, Fit: 12} },
	}
	series := func(i int) float64 { return 50 + 30*math.Sin(float64(i)/3) + float64(i%4) }
	for _, mk := range makers {
		for _, snapAt := range []int{0, 20} {
			f, twin := mk(), mk()
			t.Run(fmt.Sprintf("%s/%d", f.Name(), snapAt), func(t *testing.T) {
				for i := range snapAt {
					f.Observe(series(i))
					twin.Observe(series(i))
				}
				store := f.Snapshot(nil)
				for i := range 9 {
					f.Observe(1000 - 7*float64(i))
				}
				f.Restore(store)
				for i := snapAt; i < snapAt+20; i++ {
					if got, want := f.Predict(), twin.Predict(); got != want {
						t.Fatalf("after Restore, prediction %d = %v, want %v", i-snapAt, got, want)
					}
					f.Observe(series(i))
					twin.Observe(series(i))
				}
			})
		}
	}
}
