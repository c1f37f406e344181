package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vmprov"
)

// panelBuilder builds a built-in panel spec.
type panelBuilder func(scale float64, reps int, seed uint64) (vmprov.PanelSpec, error)

// presets are the built-in panels -dumpspec prints, in the order -list
// and the flag help name them. A nil build is the paper panel of the
// registered scenario of that name.
var presets = []struct {
	name  string
	build panelBuilder
}{
	{"web", nil},
	{"scientific", nil},
	{"all", paperPanels},
	{"web-fault", vmprov.FaultPanel},
	{"web-multi", vmprov.MultiClientPanel},
	{"web-hybrid", vmprov.HybridPanel},
	{"web-mpc", vmprov.MPCPanel},
	{"web-chaos", vmprov.ChaosPanel},
}

// presetNames lists the preset names in table order.
func presetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// paperPanels is the "all" preset: one panel holding the web and
// scientific paper panels' scenarios.
func paperPanels(scale float64, reps int, seed uint64) (vmprov.PanelSpec, error) {
	web, err := vmprov.PaperPanel("web", scale, reps, seed)
	if err != nil {
		return vmprov.PanelSpec{}, err
	}
	sci, err := vmprov.PaperPanel("scientific", scale, reps, seed)
	if err != nil {
		return vmprov.PanelSpec{}, err
	}
	web.Name = "paper-panel"
	web.Scenarios = append(web.Scenarios, sci.Scenarios...)
	return web, nil
}

// dumpSpec prints a preset panel spec, or the paper panel of any other
// registered scenario, as indented JSON. scale 0 picks each scenario's
// default; reps and seed are embedded verbatim. An unknown name's error
// lists the registered scenarios and the presets that are not one.
func dumpSpec(w io.Writer, name string, scale float64, reps int, seed uint64) error {
	var build panelBuilder
	var others []string
	for _, p := range presets {
		if p.build != nil {
			others = append(others, strconv.Quote(p.name))
		}
		if p.name == name {
			build = p.build
		}
	}
	var spec vmprov.PanelSpec
	var err error
	if build != nil {
		spec, err = build(scale, reps, seed)
	} else if spec, err = vmprov.PaperPanel(name, scale, reps, seed); err != nil {
		err = fmt.Errorf("%w (or %s)", err, strings.Join(others, ", "))
	}
	if err != nil {
		return err
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
// workers > 0 overrides the spec's worker count. Every error comes before
// the run: the spec could not be read, parsed or compiled.
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
