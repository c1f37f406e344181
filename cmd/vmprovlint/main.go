// vmprovlint is the project's determinism and correctness multichecker:
// the v1 per-package analyzers guarding the invariants every golden
// test rests on (no wall-clock time in simulation code, all randomness
// through seeded internal/stats substreams, ordered iteration where map
// contents feed output, errors.Is for sentinel comparisons, no closure
// allocation on kernel scheduling fast paths), the v2 whole-program
// passes (snapshot coverage, rng.Split substream discipline, spec
// strictness, registry hygiene, dead code), plus local lite editions of
// the stock nilness and shadow passes (lock copies are left to go vet).
//
// Usage:
//
//	vmprovlint [packages...]          lint (default ./...)
//	vmprovlint -list                  describe the analyzers
//	vmprovlint -select simclock,errcmp ./...
//	vmprovlint -json ./...
//
// A finding is suppressed by a comment, with its reason, on the flagged
// line or the line above it:
//
//	//vmprov:allow <analyzer> -- <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"vmprov/internal/lint"
)

func main() {
	var (
		list   = flag.Bool("list", false, "describe the analyzers and exit")
		sel    = flag.String("select", "", "comma-separated analyzer names to run (default: all)")
		asJSON = flag.Bool("json", false, "emit findings as JSON")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *sel != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*sel, ",") {
			a, ok := lint.AnalyzerByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "vmprovlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := lint.LoadAndRun(analyzers, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmprovlint:", err)
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vmprovlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
