package lint

import (
	"go/ast"
)

// forbiddenTimeNames are the package time identifiers that read or wait
// on the wall clock, or construct wall-clock-driven machinery. Pure
// value/format helpers (time.Duration, time.RFC3339, ...) stay legal.
var forbiddenTimeNames = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "waits on the wall clock",
	"Tick":      "constructs a wall-clock ticker",
	"AfterFunc": "constructs a wall-clock timer",
	"NewTimer":  "constructs a wall-clock timer",
	"NewTicker": "constructs a wall-clock ticker",
	"Timer":     "is wall-clock-driven",
	"Ticker":    "is wall-clock-driven",
}

// SimClockAnalyzer forbids wall-clock time inside the simulation
// packages. A single time.Now() in simulation code silently decouples a
// run from its seed: results stop being a pure function of
// (scenario, policy, seed) and the bit-identical replication guarantee
// the sweep engine and the golden tests rest on is gone. Simulated time
// must come from the kernel clock (sim.Sim.Now) and delays from
// scheduled events. CLI wrappers under cmd/ and _test.go timing
// harnesses are exempt.
var SimClockAnalyzer = &Analyzer{
	Name: "simclock",
	Doc: "forbid wall-clock time (time.Now/Since/Sleep, Timer/Ticker construction) in simulation packages; " +
		"simulated time must come from the kernel clock",
	AppliesTo: withModuleRoot(pathGate("sim", "app", "provision", "workload", "fault",
		"experiment", "metrics", "queueing", "forecast", "fluid", "mpc",
		"sla")),
	SkipTestFiles: true,
	Run:           runSimClock,
}

func runSimClock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if packageRef(pass.TypesInfo, sel.X) != "time" {
				return true
			}
			if why, bad := forbiddenTimeNames[sel.Sel.Name]; bad {
				pass.Reportf(sel.Pos(), "time.%s %s; simulation code must use the kernel clock (sim.Sim.Now) and scheduled events",
					sel.Sel.Name, why)
			}
			return true
		})
	}
}
