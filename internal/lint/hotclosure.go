package lint

import (
	"go/ast"
	"go/types"
)

// hotScheduleMethods are the kernel scheduling entry points whose
// closure-literal arguments allocate per call. Sim.Every is absent
// deliberately: it captures its callback once at registration and the
// ticker refires without reallocating, so a closure there is a one-time
// setup cost, not a per-event one.
var hotScheduleMethods = map[string]bool{
	"Schedule":     true,
	"At":           true,
	"ScheduleFunc": true,
	"AtFunc":       true,
}

// HotClosureAnalyzer flags closure literals passed to the kernel's
// scheduling fast paths (Sim.Schedule/At/ScheduleFunc/AtFunc/...) from
// the per-event packages app, provision, and workload. A func literal
// that captures variables allocates on every call; on a path that runs
// once per request or per arrival that quietly regresses the
// allocation-free kernel (3.67M events/s, ~0 allocs/event) back toward
// GC-bound throughput. Long-lived event sources should intern their
// callback once with Sim.RegisterFire and schedule through
// Sim.ScheduleFire; one-off callbacks should be package-level functions
// taking the state as the arg parameter.
var HotClosureAnalyzer = &Analyzer{
	Name: "hotclosure",
	Doc: "flag closure literals passed to Sim scheduling methods in per-event packages; " +
		"use package-level callbacks or the interned RegisterFire/ScheduleFire path",
	AppliesTo:     pathGate("app", "provision", "workload"),
	SkipTestFiles: true,
	Run:           runHotClosure,
}

func runHotClosure(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !hotScheduleMethods[sel.Sel.Name] {
				return true
			}
			if !isSimReceiver(pass, sel.X) {
				return true
			}
			for _, arg := range call.Args {
				if _, isLit := arg.(*ast.FuncLit); isLit {
					pass.Reportf(arg.Pos(), "closure literal passed to Sim.%s allocates per scheduled event; "+
						"use a package-level callback with the state as arg, or intern it once with "+
						"RegisterFire and schedule via ScheduleFire", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isSimReceiver reports whether the expression's type is (a pointer to)
// a named type Sim — the simulation kernel.
func isSimReceiver(pass *Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Sim"
}
