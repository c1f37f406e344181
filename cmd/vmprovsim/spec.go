package main

import (
	"fmt"
	"io"
	"os"

	"vmprov"
)

// dumpSpec prints a built-in paper panel spec ("web", "scientific",
// "all" for one panel holding both scenarios, "web-fault" for the
// resilience panel with injected crashes and API faults, "web-multi"
// for the multi-client cohort panel, "web-hybrid" for the hybrid
// fast-forward validation panel, "web-mpc" for the model-predictive
// comparison panel, or "web-chaos" for the failure-domain chaos panel)
// as indented JSON. scale 0 picks each scenario's default; reps and seed
// are embedded verbatim.
func dumpSpec(w io.Writer, name string, scale float64, reps int, seed uint64) error {
	var spec vmprov.PanelSpec
	switch name {
	case "web-chaos":
		var err error
		spec, err = vmprov.ChaosPanel(scale, reps, seed)
		if err != nil {
			return err
		}
	case "web-mpc":
		var err error
		spec, err = vmprov.MPCPanel(scale, reps, seed)
		if err != nil {
			return err
		}
	case "web-hybrid":
		var err error
		spec, err = vmprov.HybridPanel(scale, reps, seed)
		if err != nil {
			return err
		}
	case "web-fault":
		var err error
		spec, err = vmprov.FaultPanel(scale, reps, seed)
		if err != nil {
			return err
		}
	case "web-multi":
		var err error
		spec, err = vmprov.MultiClientPanel(scale, reps, seed)
		if err != nil {
			return err
		}
	case "all":
		web, err := vmprov.PaperPanel("web", scale, reps, seed)
		if err != nil {
			return err
		}
		sci, err := vmprov.PaperPanel("scientific", scale, reps, seed)
		if err != nil {
			return err
		}
		spec = web
		spec.Name = "paper-panel"
		spec.Scenarios = append(spec.Scenarios, sci.Scenarios...)
	default:
		var err error
		spec, err = vmprov.PaperPanel(name, scale, reps, seed)
		if err != nil {
			return fmt.Errorf("%w (or \"all\", \"web-fault\", \"web-multi\", \"web-hybrid\", \"web-mpc\", \"web-chaos\")", err)
		}
	}
	data, err := spec.MarshalJSONIndent()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// runSpecFile loads a JSON panel spec (path "-" reads stdin), compiles
// it, runs it over the sweep engine, and prints it with printPanel.
// workers > 0 overrides the spec's worker count.
func runSpecFile(path string, workers int, csv bool) error {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	spec, err := vmprov.ParsePanelSpec(data)
	if err != nil {
		return err
	}
	panel, err := spec.Compile()
	if err != nil {
		return err
	}
	printPanel(panel, panel.Run(vmprov.SweepOptions{Workers: workers}), csv)
	return nil
}

// printPanel prints a run panel's figure rows: per scenario, one table
// and its per-client breakdown, or with csv both as CSV blocks.
func printPanel(panel *vmprov.Panel, results []vmprov.PanelResult, csv bool) {
	reps := max(panel.Spec.Reps, 1)
	for i, pr := range results {
		if csv {
			fmt.Print(vmprov.ResultsCSV(pr.Results))
			// Multi-client scenarios append their per-client and
			// per-SLO-class rows as a second CSV block.
			fmt.Print(vmprov.ClientBreakdownCSV(pr.Results))
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		caption := vmprov.FigureCaption(panel.Spec.Name, panel.Scenarios[i], reps)
		fmt.Print(vmprov.FigureTable(caption, pr.Results))
		if t := vmprov.ClientBreakdownTable("per-client breakdown", pr.Results); t != "" {
			fmt.Println()
			fmt.Print(t)
		}
	}
}
