package main

import (
	"fmt"
	"io"
	"strings"

	"vmprov"
)

// printRegistries writes every registered extension point — what -scenario,
// -policy, workload "kind" fields, scenario "placement" fields, and -mode
// accept — so users discover the registries without reading source.
func printRegistries(w io.Writer) {
	section := func(title string, names []string) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "  %s\n", n)
		}
		fmt.Fprintln(w)
	}
	section("scenarios (-scenario, spec \"scenario\")", vmprov.ScenarioNames())
	section("policies (-policy, panel \"policies\")", vmprov.PolicyNames())
	section("workload kinds (spec \"workload.kind\")", vmprov.WorkloadNames())
	section("placements (spec \"placement\")", vmprov.PlacementNames())
	section("panel presets (-dumpspec)", presetNames())
	fmt.Fprintf(w, "chaos fault tiers (-chaos, -dumpspec web-chaos):\n")
	for _, tier := range vmprov.ChaosTiers() {
		d := tier.Domains
		var parts []string
		if d.Brownout.MTBF > 0 {
			parts = append(parts, fmt.Sprintf("brownouts (boot ×%g, +%.0f%% API errors)",
				d.Brownout.BootFactor, d.Brownout.ErrorProb*100))
		}
		if d.Outage.MTBF > 0 {
			parts = append(parts, fmt.Sprintf("%d-zone outages (MTBF %.0fs)", d.Zones, d.Outage.MTBF))
		}
		if d.Storm.MTBF > 0 {
			parts = append(parts, fmt.Sprintf("crash storms (kill %.0f%%)", d.Storm.KillProb*100))
		}
		fmt.Fprintf(w, "  %-9s %s\n", tier.Name, strings.Join(parts, " + "))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "modes (-mode, spec \"mode\"):\n  %s (default)\n  %s\n",
		vmprov.ModeExact, vmprov.ModeHybrid)
}
