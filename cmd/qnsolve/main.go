// qnsolve is a standalone calculator for the paper's analytic layer: it
// evaluates the M/M/1/k station and fleet model for given parameters, or
// runs Algorithm 1 to size a fleet for a QoS contract.
//
// Usage:
//
//	qnsolve -lambda 1200 -tm 0.105 -ts 0.250 -m 153        # evaluate a fleet
//	qnsolve -size -lambda 1200 -tm 0.105 -ts 0.250 -util 0.8
//
// Invalid parameters exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"vmprov"
	"vmprov/internal/provision"
	"vmprov/internal/queueing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qnsolve:", err)
		os.Exit(2)
	}
}

// run parses the command line and prints the requested evaluation to w;
// an error means the parameters describe no valid model.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qnsolve", flag.ExitOnError)
	var (
		lambda  = fs.Float64("lambda", 0, "aggregate arrival rate (req/s)")
		tm      = fs.Float64("tm", 0, "mean request execution time (s)")
		ts      = fs.Float64("ts", 0, "QoS maximum response time (s); with -tm it defines k")
		k       = fs.Int("k", 0, "per-instance queue size (0 = derive from ts/tm)")
		m       = fs.Int("m", 1, "number of instances to evaluate")
		size    = fs.Bool("size", false, "run Algorithm 1 instead of evaluating a fixed m")
		sweep   = fs.String("sweep", "", "capacity plan sweep: \"lo:hi:step\" arrival rates; prints m(λ) per Algorithm 1 and brute force")
		rej     = fs.Float64("rej", 0, "QoS maximum rejection rate")
		rejTol  = fs.Float64("rejtol", 1e-3, "modeling tolerance on the rejection target")
		util    = fs.Float64("util", 0.8, "minimum utilization threshold")
		maxVMs  = fs.Int("maxvms", 10000, "MaxVMs ceiling for Algorithm 1")
		current = fs.Int("current", 1, "current fleet size for Algorithm 1")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 itself

	if !(*lambda >= 0 && *tm > 0 && *ts > 0) { // NaN fails too
		return errors.New("need -lambda ≥ 0, -tm > 0, -ts > 0")
	}
	if *k <= 0 {
		if *ts < *tm {
			return fmt.Errorf("k = ⌊ts/tm⌋ = ⌊%v/%v⌋ < 1: -ts must be at least -tm, or every request misses it on arrival", *ts, *tm)
		}
		*k = queueing.QueueSize(*ts, *tm)
	}
	qos := vmprov.QoS{Ts: *ts, MaxRejection: *rej, RejectionTol: *rejTol, MinUtilization: *util}

	if *sweep != "" {
		lo, hi, step, err := parseSweep(*sweep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k = %d; per-instance headroom ρ ≤ %.4f at rejection tol %.3g\n",
			*k, queueing.RhoForBlocking(*k, math.Max(*rej+*rejTol, 1e-9)), *rej+*rejTol)
		fmt.Fprintf(w, "%12s %12s %12s %12s\n", "lambda", "m(Alg1)", "m(minimal)", "util@Alg1")
		current := *current
		for l := lo; l <= hi+1e-12; l += step {
			in := vmprov.SizingInput{Lambda: l, Tm: *tm, K: *k, Current: current, MaxVMs: *maxVMs, QoS: qos}
			m := vmprov.Algorithm1(in)
			minimal := "none"
			if opt, ok := provision.OptimalSize(in); ok {
				minimal = strconv.Itoa(opt)
			}
			f := queueing.Fleet{Lambda: l, Tm: *tm, K: *k, M: m}
			fmt.Fprintf(w, "%12.4g %12d %12s %12.4f\n", l, m, minimal, f.OfferedUtilization())
			current = m // the next step starts from the previous plan
		}
		return nil
	}

	if *size {
		in := vmprov.SizingInput{
			Lambda: *lambda, Tm: *tm, K: *k,
			Current: *current, MaxVMs: *maxVMs, QoS: qos,
		}
		got := vmprov.Algorithm1(in)
		fmt.Fprintf(w, "k = %d (Equation 1)\n", *k)
		fmt.Fprintf(w, "m = %d instances (Algorithm 1)\n", got)
		if opt, ok := provision.OptimalSize(in); ok {
			fmt.Fprintf(w, "smallest QoS-feasible m = %d (brute force)\n", opt)
		} else {
			fmt.Fprintf(w, "no m ≤ %d meets QoS (brute force)\n", *maxVMs)
		}
		report(w, queueing.Fleet{Lambda: *lambda, Tm: *tm, K: *k, M: got})
		return nil
	}
	f := queueing.Fleet{Lambda: *lambda, Tm: *tm, K: *k, M: *m}
	if err := f.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "k = %d (Equation 1)\n", *k)
	report(w, f)
	return nil
}

// parseSweep parses "lo:hi:step".
func parseSweep(s string) (lo, hi, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("sweep %q must be lo:hi:step", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sweep %q: %v", s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, 0, fmt.Errorf("sweep %q: bounds and step must be finite", s)
		}
		vals[i] = v
	}
	if vals[2] <= 0 || vals[1] < vals[0] {
		return 0, 0, 0, fmt.Errorf("sweep %q: need hi ≥ lo and step > 0", s)
	}
	return vals[0], vals[1], vals[2], nil
}

func report(w io.Writer, f queueing.Fleet) {
	st := f.Station()
	fmt.Fprintf(w, "per-instance: λ=%.6g req/s  ρ=%.4f  Pr(Sk)=%.6g\n",
		st.Lambda, st.Rho(), st.Blocking())
	fmt.Fprintf(w, "fleet: response=%.6gs  rejection=%.6g  offered util=%.4f  carried util=%.4f  throughput=%.6g req/s\n",
		f.ResponseTime(), f.SystemRejection(), f.OfferedUtilization(),
		f.CarriedUtilization(), f.Throughput())
}
