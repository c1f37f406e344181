package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWelfordBasic(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	within(t, w.Mean(), 5, 1e-12, "mean")
	within(t, w.Var(), 32.0/7.0, 1e-12, "var") // unbiased
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
	within(t, w.Sum(), 40, 1e-12, "sum")
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Var() != 0 {
		t.Fatalf("variance of one sample = %v", w.Var())
	}
	if w.Min() != 3.5 || w.Max() != 3.5 {
		t.Fatal("min/max of single sample wrong")
	}
}

// Property: merging two partitions of a stream matches accumulating the
// whole stream.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(seed uint64, splitAt uint8) bool {
		r := NewRNG(seed)
		n := 200
		cut := int(splitAt) % n
		var whole, left, right Welford
		for i := 0; i < n; i++ {
			x := r.NormFloat64()*3 + 1
			whole.Add(x)
			if i < cut {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(right)
		return left.N() == whole.N() &&
			math.Abs(left.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(left.Var()-whole.Var()) < 1e-9 &&
			left.Min() == whole.Min() && left.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Fatal("merging empty summary changed state")
	}
	b.Merge(a) // merging into empty adopts
	if b.N() != 2 || b.Mean() != 2 {
		t.Fatal("merge into empty failed")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)
	tw.Set(5, 20) // 10 for 5s
	tw.Set(7, 0)  // 20 for 2s
	// integral to t=10: 50 + 40 + 0 = 90
	within(t, tw.Integral(10), 90, 1e-12, "integral")
	within(t, tw.Average(10), 9, 1e-12, "average")
	if tw.Min() != 0 || tw.Max() != 20 {
		t.Fatalf("min/max = %v/%v", tw.Min(), tw.Max())
	}
	if got := tw.Integral(12) - tw.Integral(10); got != 0 {
		t.Fatalf("signal after the last Set integrates to %v over 2s, want 0", got)
	}
}

func TestTimeWeightedLateStart(t *testing.T) {
	var tw TimeWeighted
	tw.Set(100, 4)
	within(t, tw.Average(150), 4, 1e-12, "constant signal average")
	within(t, tw.Integral(150), 200, 1e-12, "integral from late start")
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Integral(10) != 0 {
		t.Fatal("integral of empty signal should be 0")
	}
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() uint64 { return h.total }

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	if h.Total() != 1000 {
		t.Fatalf("total = %d", h.Total())
	}
	q50 := h.Quantile(0.5)
	if q50 < 45 || q50 > 55 {
		t.Fatalf("median = %v, want ≈50", q50)
	}
	q99 := h.Quantile(0.99)
	if q99 < 95 || q99 > 100 {
		t.Fatalf("p99 = %v, want ≈99", q99)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	h.Add(10) // hi is exclusive
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
}

// TestHistogramZeroSnapshot: restoring the zero HistSnap empties every
// bucket and keeps the range, so the histogram then counts and reports
// quantiles exactly like a new one.
func TestHistogramZeroSnapshot(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0.5, 3, 3, 7.5, 9.9, 12} {
		h.Add(x)
	}
	h.Restore(&HistSnap{})
	fresh := NewHistogram(0, 10, 10)
	for _, x := range []float64{1, 1, 2, 4.5} {
		h.Add(x)
		fresh.Add(x)
	}
	if !reflect.DeepEqual(h.Counts, fresh.Counts) || h.Under != fresh.Under || h.Over != fresh.Over || h.Total() != fresh.Total() {
		t.Fatalf("restored histogram counts %v under=%d over=%d total=%d, new one %v under=%d over=%d total=%d",
			h.Counts, h.Under, h.Over, h.Total(), fresh.Counts, fresh.Under, fresh.Over, fresh.Total())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := h.Quantile(q), fresh.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v after restoring the zero snapshot, new histogram %v", q, got, want)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram with hi<=lo should panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestWindowMean(t *testing.T) {
	w := NewWindow(3)
	if got := w.MeanOr(7); got != 7 {
		t.Fatalf("empty window MeanOr = %v", got)
	}
	w.Add(1)
	w.Add(2)
	within(t, w.Mean(), 1.5, 1e-12, "partial window")
	w.Add(3)
	w.Add(4) // evicts 1
	within(t, w.Mean(), 3, 1e-12, "full window")
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
}

// TestWindowZeroSnapshot: restoring the zero WindowSnap empties a window
// that had wrapped, and refilling it then matches a new window.
func TestWindowZeroSnapshot(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{4, 8, 15, 16} {
		w.Add(x)
	}
	w.Restore(&WindowSnap{})
	if w.Len() != 0 || w.MeanOr(42) != 42 {
		t.Fatalf("after restoring the zero snapshot: Len() = %d, MeanOr(42) = %v", w.Len(), w.MeanOr(42))
	}
	fresh := NewWindow(3)
	for _, x := range []float64{23, 42, 7, 9} {
		w.Add(x)
		fresh.Add(x)
		if w.Len() != fresh.Len() || w.Mean() != fresh.Mean() {
			t.Fatalf("after adding %v: Len() %d, Mean() %v; new window %d, %v", x, w.Len(), w.Mean(), fresh.Len(), fresh.Mean())
		}
	}
}

// Property: window mean equals the mean of the last n observations.
func TestWindowMeanProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8, countRaw uint8) bool {
		size := int(sizeRaw)%20 + 1
		count := int(countRaw) + 1
		r := NewRNG(seed)
		w := NewWindow(size)
		var all []float64
		for i := 0; i < count; i++ {
			x := r.Float64() * 100
			all = append(all, x)
			w.Add(x)
		}
		start := len(all) - size
		if start < 0 {
			start = 0
		}
		var sum float64
		for _, x := range all[start:] {
			sum += x
		}
		want := sum / float64(len(all)-start)
		return math.Abs(w.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
