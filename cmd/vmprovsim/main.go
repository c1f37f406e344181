// vmprovsim runs the paper's evaluation scenarios and prints the
// Figure 5/6 panel data.
//
// Usage:
//
//	vmprovsim -list
//	vmprovsim -scenario web -scale 0.1 -reps 3 -all
//	vmprovsim -scenario scientific -reps 10 -all -csv
//	vmprovsim -scenario scientific -policy adaptive -series
//	vmprovsim -scenario web -scale 0.1 -policy static:10
//	vmprovsim -scenario web -scale 0.05 -mode hybrid -all
//	vmprovsim -dumpspec scientific -reps 3 > panel.json
//	vmprovsim -dumpspec web-multi -reps 3 > multi.json
//	vmprovsim -dumpspec web-hybrid -reps 3 > hybrid.json
//	vmprovsim -spec multi.json
//	vmprovsim -chaos -scale 0.02 -reps 1
//	vmprovsim -scenario web-multi -record arrivals.trace
//	vmprovsim -scenario web -scale 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -all evaluates the adaptive policy against every static baseline of the
// scenario (the full figure); otherwise a single policy runs. Scenarios
// and policies resolve through registries; -spec runs a declarative JSON
// panel file end to end and -dumpspec emits the built-in paper panels as
// such files. -cpuprofile/-memprofile wrap any mode with pprof capture.
// Throughput is measured by the separate bench/ harness (bench/README.md).
//
// Bad flags exit 2, in every mode: among them a -scale or -horizon that
// is negative or not finite (0 picks the scenario default), -reps < 1, a
// -spec file that cannot be read or does not compile, and a static fleet
// (static:<m>, or a static:* rung) above the scenario's VM ceiling.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vmprov"
	"vmprov/internal/report"
)

func main() {
	var (
		list     = flag.Bool("list", false, "print the registered scenarios, policies, workload kinds, placements, and modes, then exit")
		scenario = flag.String("scenario", "scientific", "registered scenario name (web, scientific, ...)")
		scale    = flag.Float64("scale", 0, "load scale; 0 picks the scenario default (web 0.1, scientific 1)")
		reps     = flag.Int("reps", 3, "replications per policy (paper: 10)")
		seed     = flag.Uint64("seed", 1, "base random seed")
		workers  = flag.Int("workers", 0, "parallel replications (0 = GOMAXPROCS)")
		all      = flag.Bool("all", false, "run adaptive + every static baseline (full figure)")
		reportMD = flag.String("report", "", "with -all: also write a Markdown report to this file")
		policy   = flag.String("policy", "adaptive", "registered policy name (adaptive, static:<m>, ...; single-policy mode)")
		specFile = flag.String("spec", "", "run a declarative JSON panel spec file (\"-\" = stdin)")
		dump     = flag.String("dumpspec", "", "print a built-in panel spec as JSON: "+strings.Join(presetNames(), ", "))
		mode     = flag.String("mode", "", "simulation mode: exact (default) or hybrid analytical fast-forward")
		record   = flag.String("record", "", "record the scenario's arrival stream as a v2 trace to this file (uses -scenario/-scale/-seed/-horizon)")
		csv      = flag.Bool("csv", false, "emit CSV instead of a table")
		series   = flag.Bool("series", false, "emit the instance-count time series (single-policy mode)")
		traceOut = flag.String("trace", "", "write a JSONL event trace of one replication to this file (single-policy mode)")
		horizon  = flag.Float64("horizon", 0, "override simulated seconds (0 = scenario default)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		chaos      = flag.Bool("chaos", false, "run the chaos panel (fault-intensity ladder with per-replication invariant checks) and print per-tier resilience results; reads -scale, -reps, -horizon, -seed, -workers")
	)
	flag.Parse()
	if err := checkRunFlags(*scale, *horizon, *reps); err != nil {
		fmt.Fprintln(os.Stderr, "vmprovsim:", err)
		os.Exit(2)
	}

	if *list {
		printRegistries(os.Stdout)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile → %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vmprovsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "vmprovsim:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "allocation profile → %s\n", path)
		}()
	}

	if *chaos {
		if err := runChaos(*scale, *reps, *seed, *workers, *horizon); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(1)
		}
		return
	}

	if *dump != "" {
		if err := dumpSpec(os.Stdout, *dump, *scale, *reps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(2)
		}
		return
	}

	if *specFile != "" {
		if err := runSpecFile(*specFile, *workers, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(2)
		}
		return
	}

	// -horizon and -mode edit the scenario spec before it compiles.
	ps, err := vmprov.PaperPanel(*scenario, *scale, *reps, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmprovsim:", err)
		os.Exit(2)
	}
	sp := &ps.Scenarios[0]
	if *horizon > 0 {
		sp.Horizon = *horizon
	}
	sp.Mode = vmprov.Mode(*mode)
	sc, err := sp.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmprovsim:", err)
		os.Exit(2)
	}

	if *record != "" {
		f, ferr := os.Create(*record)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", ferr)
			os.Exit(1)
		}
		n, rerr := vmprov.RecordTrace(sc, *seed, f)
		if cerr := f.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", rerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d requests → %s\n", n, *record)
		return
	}

	if !*all {
		ps.Policies = []string{*policy}
	}
	panel, err := ps.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmprovsim:", err)
		os.Exit(2)
	}

	if *all {
		results := panel.Run(vmprov.SweepOptions{Workers: *workers})
		if *reportMD != "" {
			_, series := vmprov.RunOnce(sc, vmprov.Adaptive(), *seed, vmprov.RunOptions{TrackSeries: true})
			md := report.Markdown(report.Meta{
				Title:    fmt.Sprintf("%s scenario report", sc.Name),
				Scenario: sc.Name, Scale: sc.Scale, Horizon: sc.Horizon,
				Reps: *reps, Seed: *seed,
			}, results[0].Results, series)
			if err := os.WriteFile(*reportMD, []byte(md), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "vmprovsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "report → %s\n", *reportMD)
		}
		printPanel(panel, results, *csv)
		return
	}

	pol := panel.Policies[0][0]
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := vmprov.NewTraceWriter(f)
		res, _ := vmprov.RunOnce(sc, pol, *seed, vmprov.RunOptions{Tracer: w})
		fmt.Fprintf(os.Stderr, "%s\ntrace: %d events → %s\n", res, w.Count(), *traceOut)
		if err := w.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovsim: trace write:", err)
			os.Exit(1)
		}
		return
	}

	if *series {
		res, pts := vmprov.RunOnce(sc, pol, *seed, vmprov.RunOptions{TrackSeries: true})
		fmt.Println("t_seconds,instances")
		for _, p := range pts {
			fmt.Printf("%.0f,%d\n", p.T, p.N)
		}
		fmt.Fprintln(os.Stderr, res)
		return
	}

	// Single-policy mode prints every replication's row before the mean.
	runs := make([]vmprov.Result, len(panel.Jobs()))
	agg := panel.Run(vmprov.SweepOptions{
		Workers:       *workers,
		OnReplication: func(i int, res vmprov.Result, _ []vmprov.SeriesPoint) { runs[i] = res },
	})[0].Results[0]
	if *csv {
		fmt.Print(vmprov.ResultsCSV(append(runs, agg)))
		return
	}
	for i, r := range runs {
		fmt.Printf("rep %d: %s\n", i, r)
	}
	fmt.Printf("mean:  %s\n", agg)
}

// checkRunFlags rejects the flag values no run can mean, in every mode:
// a scale or horizon that is negative or not finite (0 picks the
// scenario default), or fewer than one replication.
func checkRunFlags(scale, horizon float64, reps int) error {
	switch {
	case !(scale >= 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale %v: need a finite scale ≥ 0 (0 = scenario default)", scale)
	case !(horizon >= 0) || math.IsInf(horizon, 1):
		return fmt.Errorf("-horizon %v: need a finite horizon ≥ 0 (0 = scenario default)", horizon)
	case reps < 1:
		return fmt.Errorf("-reps %d: need at least one replication", reps)
	}
	return nil
}
