// wlgen dumps the workload models' arrival-rate series as CSV — the data
// behind the paper's Figure 3 (web, one week) and Figure 4 (scientific,
// one day).
//
// Usage:
//
//	wlgen -scenario web                 # analytic mean rate, 60 s steps
//	wlgen -scenario scientific -mode observed -seed 7
//
// Invalid flags exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"vmprov"
	"vmprov/internal/experiment"
	"vmprov/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(2)
	}
}

// run parses the command line and writes the requested series to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wlgen", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "web", "web or scientific")
		scale    = fs.Float64("scale", 1, "load scale")
		mode     = fs.String("mode", "mean", "mean (analytic curve) or observed (one simulated realization, binned)")
		step     = fs.Float64("step", 60, "sampling step / bin width in seconds")
		horizon  = fs.Float64("horizon", 0, "series length in seconds (0 = figure default: web one week, scientific one day)")
		seed     = fs.Uint64("seed", 1, "seed for -mode observed")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 itself

	switch {
	case !(*step > 0) || math.IsInf(*step, 1):
		return fmt.Errorf("-step %v: need a finite step > 0", *step)
	case !workload.ValidScale(*scale):
		return fmt.Errorf("-scale %v: need a finite scale ≥ 0", *scale)
	case !(*horizon >= 0) || math.IsInf(*horizon, 1):
		return fmt.Errorf("-horizon %v: need a finite horizon ≥ 0 (0 = figure default)", *horizon)
	}

	var src vmprov.Source
	switch *scenario {
	case "web":
		if *horizon == 0 {
			*horizon = workload.Week
		}
		src = workload.NewWeb(*scale)
	case "scientific", "sci":
		if *horizon == 0 {
			*horizon = workload.Day
		}
		src = workload.NewScientific(*scale)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	switch *mode {
	case "mean":
		fmt.Fprintln(w, "t_seconds,requests_per_second")
		for t := 0.0; t <= *horizon; t += *step {
			fmt.Fprintf(w, "%.0f,%.6f\n", t, src.MeanRate(t))
		}
	case "observed":
		bins := experiment.ObservedRateSeries(src, *seed, *horizon, *step)
		fmt.Fprintln(w, "t_seconds,requests_per_second")
		for i, b := range bins {
			fmt.Fprintf(w, "%.0f,%.6f\n", float64(i)**step, b)
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}
