package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeSamples writes n positive values, one per line, to a temporary
// file and returns its path.
func writeSamples(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	path := filepath.Join(t.TempDir(), "samples.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRejectsBadFlags: each bad command line exits 2 before printing
// anything. A NaN -window used to panic sizing the forecast bins, a
// window ≤ 0 printed "series too short" and exited 0, and a misspelt
// -mode silently fitted the values.
func TestRejectsBadFlags(t *testing.T) {
	input := writeSamples(t, 20)
	for _, args := range [][]string{
		{"-scenario", "scientific", "-forecast", "-window", "NaN"},
		{"-scenario", "scientific", "-forecast", "-window", "0"},
		{"-scenario", "scientific", "-forecast", "-window", "-5"},
		{"-scenario", "scientific", "-forecast", "-window", "+Inf"},
		{"-input", input, "-mode", "tims"},
		{"-input", input, "-forecast"}, // values have no timestamps to bin
		{"-scenario", "bogus"},
		{}, // neither -input nor -scenario
	} {
		var out strings.Builder
		if code := exitCode(run(args, &out)); code != 2 {
			t.Errorf("wlfit %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if out.Len() > 0 {
			t.Errorf("wlfit %s printed before rejecting:\n%s", strings.Join(args, " "), out.String())
		}
	}
}

// TestInputErrorsExitOne: input that cannot be read or fitted exits 1.
func TestInputErrorsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-input", filepath.Join(t.TempDir(), "missing.csv")},
		{"-input", writeSamples(t, 5)}, // fewer than 10 samples
	} {
		if code := exitCode(run(args, new(strings.Builder))); code != 1 {
			t.Errorf("wlfit %s: exit %d, want 1", strings.Join(args, " "), code)
		}
	}
}

// TestDemoHeader: the demo fits the scientific model's own peak-hour
// job interarrivals, so its report opens with the sample's size and
// shape, ranks the Weibull family first and plausible, and the forecast
// backtest follows at the default 60 s window.
func TestDemoHeader(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "scientific", "-forecast"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	want := []struct {
		line   int
		prefix string
	}{
		{0, "demo: 4532 peak-hour BoT job arrivals from the scientific model (true interarrival: Weibull(4.25, 7.86))"},
		{2, "samples: n=4531 mean="},
		{3, "shape:   cv²="},
		{5, "family       parameters                         mean       KS D   verdict (KS 5% crit "},
		{6, "weibull "},
		{10, "one-step-ahead forecast backtest (60 s windows, "},
	}
	for _, w := range want {
		if w.line >= len(lines) || !strings.HasPrefix(lines[w.line], w.prefix) {
			t.Fatalf("line %d does not start with %q:\n%s", w.line, w.prefix, out.String())
		}
	}
	if !strings.HasSuffix(lines[6], "plausible") {
		t.Errorf("Weibull fit of the Weibull model rejected: %q", lines[6])
	}
}

// TestWindowCountsSpanTheSample: the forecast windows start at the
// first timestamp and the last timestamp gets one, so a sample far from
// t = 0 has a non-empty first window and its counts sum to its size.
// Binning from t = 0 up to the last timestamp put 480 empty windows in
// front of this sample and dropped its last arrival.
func TestWindowCountsSpanTheSample(t *testing.T) {
	const start = 8 * 3600
	times := []float64{start + 180, start, start + 30, start + 61, start + 179.5}
	if counts, want := windowCounts(times, 60), []float64{2, 1, 1, 1}; !slices.Equal(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
}
