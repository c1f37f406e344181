// wlfit fits candidate distributions to workload measurements — the
// paper's workload-modeling feedback loop (contribution 2): analyze a
// trace, recover its distributional parameters, and feed them to the
// provisioner's analyzer.
//
// Usage:
//
//	wlfit -scenario scientific              # round-trip demo on the BoT model
//	wlfit -input trace.csv                  # values, one per line / first CSV column
//	wlfit -input times.csv -mode times      # event timestamps → interarrival fit
//
// For each candidate family (exponential, Weibull, log-normal) it prints
// the fitted parameters, analytic mean, the Kolmogorov–Smirnov statistic
// against the sample, and whether the fit survives at the 5% level.
//
// Bad flags exit 2: among them a -window that is not a finite positive
// number and a -mode other than values or times. Input that cannot be
// read or fitted exits 1.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"vmprov/internal/forecast"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlfit:", err)
	}
	os.Exit(exitCode(err))
}

// usageError is a bad command line, which exits 2; any other error
// (input that cannot be read or fitted) exits 1.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// exitCode maps run's error to the process exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(usageError)):
		return 2
	default:
		return 1
	}
}

// run parses the command line, fits the requested sample and writes the
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wlfit", flag.ExitOnError)
	var (
		input    = fs.String("input", "", "file of samples (one value per line or first CSV column); empty with -scenario runs the built-in demo")
		mode     = fs.String("mode", "values", "values (fit directly) or times (fit the gaps between ascending timestamps)")
		scenario = fs.String("scenario", "", "scientific: demo-fit the BoT model's own peak interarrivals")
		seed     = fs.Uint64("seed", 1, "seed for the demo scenario")
		fcast    = fs.Bool("forecast", false, "with -mode times: additionally backtest the forecaster family on per-window rates")
		window   = fs.Float64("window", 60, "forecast binning window in seconds")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 itself

	switch {
	case !(*window > 0) || math.IsInf(*window, 1):
		return usagef("-window %v: need a finite window > 0", *window)
	case *mode != "values" && *mode != "times":
		return usagef("unknown -mode %q: need values or times", *mode)
	case *fcast && *mode != "times" && *scenario == "":
		return usagef("-forecast needs timestamp input (-mode times or -scenario)")
	}

	var (
		xs  []float64
		err error
	)
	switch {
	case *scenario != "":
		xs, err = demoSample(w, *scenario, *seed)
	case *input != "":
		xs, err = readSamples(*input)
	default:
		err = usagef("need -input or -scenario")
	}
	if err != nil {
		return err
	}
	times := xs
	if *mode == "times" || *scenario != "" {
		xs = gaps(times)
	}
	if len(xs) < 10 {
		return fmt.Errorf("only %d samples; need at least 10", len(xs))
	}
	if err := report(w, xs); err != nil {
		return err
	}
	if *fcast {
		forecastReport(w, times, *window)
	}
	return nil
}

// forecastReport bins the timestamps into windows and backtests the
// forecaster family on the per-window rates.
func forecastReport(w io.Writer, times []float64, window float64) {
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	horizon := sorted[len(sorted)-1]
	counts := stats.BinCounts(sorted, horizon, window)
	series := make([]float64, len(counts))
	for i, c := range counts {
		series[i] = c / window
	}
	period := len(series) / 4
	if period < 2 {
		period = 2
	}
	scores, err := forecast.Compare(series, len(series)/5+2,
		&forecast.Naive{},
		&forecast.MovingAverage{Window: 8},
		&forecast.Holt{Alpha: 0.5, Beta: 0.2},
		&forecast.SeasonalNaive{Period: period},
		&forecast.AR{Order: 3, Fit: 8 * 3},
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlfit: forecast backtest:", err)
		return
	}
	fmt.Fprintf(w, "\none-step-ahead forecast backtest (%.0f s windows, %d steps):\n%s",
		window, scores[0].Steps, forecast.Table(scores))
}

// demoSample generates peak-hour BoT job arrival times from the
// scientific model; the main flow derives the interarrival gaps, whose
// fit must recover Weibull(4.25, 7.86).
func demoSample(w io.Writer, name string, seed uint64) ([]float64, error) {
	if name != "scientific" && name != "sci" {
		return nil, usagef("unknown scenario %q", name)
	}
	sc := workload.NewScientific(1)
	s := sim.New()
	var times []float64
	sc.Start(s, stats.NewRNG(seed), func(q workload.Request) {
		tod := q.Arrival - 8*3600
		if tod >= 0 && q.Arrival < 17*3600 {
			times = append(times, q.Arrival)
		}
	})
	s.RunUntil(17 * 3600)
	// Jobs arrive in task batches at identical instants; deduplicate to
	// recover job arrival times.
	uniq := times[:0]
	for i, t := range times {
		if i == 0 || t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	fmt.Fprintf(w, "demo: %d peak-hour BoT job arrivals from the scientific model (true interarrival: Weibull(4.25, 7.86))\n\n", len(uniq))
	return append([]float64(nil), uniq...), nil
}

func readSamples(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var xs []float64
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field := strings.Split(line, ",")[0]
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			continue // skip headers
		}
		xs = append(xs, v)
	}
	return xs, scan.Err()
}

// gaps converts ascending event times to interarrival gaps.
func gaps(times []float64) []float64 {
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	var out []float64
	for i := 1; i < len(s); i++ {
		if d := s[i] - s[i-1]; d > 0 {
			out = append(out, d)
		}
	}
	return out
}

type candidate struct {
	name  string
	param string
	mean  float64
	dist  stats.CDFer
	err   error
}

func report(w io.Writer, xs []float64) error {
	var st stats.Welford
	for _, x := range xs {
		st.Add(x)
	}
	cv2 := 0.0
	if st.Mean() != 0 {
		cv2 = st.Var() / (st.Mean() * st.Mean())
	}
	fmt.Fprintf(w, "samples: n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g\n",
		st.N(), st.Mean(), st.Std(), st.Min(), st.Max())
	fmt.Fprintf(w, "shape:   cv²=%.3f (1 = exponential, <1 regular, >1 bursty)  lag-1 acf=%.3f\n\n",
		cv2, stats.Autocorrelation(xs, 1))

	var cands []candidate
	if e, err := stats.FitExponential(xs); err == nil {
		cands = append(cands, candidate{"exponential", fmt.Sprintf("rate=%.4g", e.Rate), e.Mean(), e, nil})
	}
	if wb, err := stats.FitWeibull(xs); err == nil {
		cands = append(cands, candidate{"weibull", fmt.Sprintf("shape=%.4g scale=%.4g", wb.Shape, wb.Scale), wb.Mean(), wb, nil})
	}
	if l, err := stats.FitLogNormal(xs); err == nil {
		cands = append(cands, candidate{"lognormal", fmt.Sprintf("mu=%.4g sigma=%.4g", l.Mu, l.Sigma), l.Mean(), l, nil})
	}
	if len(cands) == 0 {
		return errors.New("no family could be fitted (non-positive data?)")
	}
	crit := stats.KSCritical(0.05, len(xs))
	fmt.Fprintf(w, "%-12s %-28s %10s %10s   verdict (KS 5%% crit %.4f)\n", "family", "parameters", "mean", "KS D", crit)
	type scored struct {
		candidate
		d float64
	}
	var rows []scored
	for _, c := range cands {
		rows = append(rows, scored{c, stats.KolmogorovSmirnov(xs, c.dist)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d < rows[j].d })
	for _, r := range rows {
		verdict := "rejected"
		if r.d < crit {
			verdict = "plausible"
		}
		fmt.Fprintf(w, "%-12s %-28s %10.4g %10.4f   %s\n", r.name, r.param, r.mean, r.d, verdict)
	}
	return nil
}
