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
//	vmprovlint -sarif ./...           SARIF 2.1.0 on stdout
//	vmprovlint -baseline lint_baseline.json ./...
//	vmprovlint -write-baseline lint_baseline.json ./...
//
// A finding is suppressed by a comment on the flagged line or the line
// above it:
//
//	//vmprov:allow <analyzer> -- <reason>
//
// With -baseline, findings listed in the committed baseline file are
// additionally tolerated (matched on analyzer, file, and message — not
// line, so unrelated edits do not resurrect them); -write-baseline
// regenerates that file from the current findings and exits 0.
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
		list     = flag.Bool("list", false, "describe the analyzers and exit")
		sel      = flag.String("select", "", "comma-separated analyzer names to run (default: all)")
		asJSON   = flag.Bool("json", false, "emit findings as JSON")
		asSARIF  = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		baseline = flag.String("baseline", "", "tolerate findings listed in this baseline file")
		writeBl  = flag.String("write-baseline", "", "write current findings to this baseline file and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(os.Stderr, "vmprovlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
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
	root, err := os.Getwd()
	if err != nil {
		root = ""
	}

	if *writeBl != "" {
		if err := lint.WriteBaseline(*writeBl, diags, root); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "vmprovlint: baseline %s written with %d finding(s)\n", *writeBl, len(diags))
		return
	}
	if *baseline != "" {
		entries, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmprovlint:", err)
			os.Exit(2)
		}
		diags = lint.FilterBaseline(diags, entries, root)
	}

	switch {
	case *asSARIF:
		if err := lint.WriteSARIF(os.Stdout, analyzers, diags, root); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovlint:", err)
			os.Exit(2)
		}
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "vmprovlint:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vmprovlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
