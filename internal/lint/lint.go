// Package lint hosts vmprovlint, the project's determinism and
// correctness analyzer suite. Every load-bearing guarantee of this
// reproduction — bit-identical replications across sweep worker counts,
// pooled-context reuse, and fault seeds — rests on code conventions that
// the type system cannot express: no wall-clock time inside simulation
// packages, all randomness through seeded internal/stats substreams,
// ordered iteration wherever map contents feed output, sentinel errors
// matched with errors.Is, and no per-event closure allocation on the
// kernel's hot scheduling paths. The analyzers here enforce those
// conventions mechanically, so they scale with contributors instead of
// relying on golden files to catch violations after the fact.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) but is self-contained: the
// build environment is hermetic with no module proxy, so the framework
// is implemented on the standard library alone (go/ast, go/types, and
// export data produced by `go list -export`). Should x/tools become
// available, each Analyzer.Run is a one-line adaptation away from a
// real analysis.Analyzer.
//
// A finding can be suppressed case by case with a comment on the
// flagged line or the line directly above it:
//
//	//vmprov:allow <analyzer> -- <reason>
//
// The reason is mandatory; an allow comment without one does not
// suppress anything (it is reported instead), so every suppression in
// the tree documents why the invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, mirroring
// golang.org/x/tools/go/analysis.Analyzer in miniature. An analyzer is
// either package-scoped (Run set) or whole-program (RunModule set): the
// v2 invariants — globally unique rng.Split keys, registry name
// uniqueness, Validate() reachability across package boundaries — are
// properties of the module, not of any one package, so they run once
// over the full loaded package set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vmprov:allow suppression comments.
	Name string
	// Doc is the one-paragraph description printed by vmprovlint -list.
	Doc string
	// AppliesTo gates the analyzer by package import path; nil means
	// the analyzer runs on every package. For module analyzers it
	// filters which packages contribute syntax to the pass.
	AppliesTo func(pkgPath string) bool
	// SkipTestFiles excludes _test.go files from the analyzer's view
	// (timing harnesses and table tests legitimately break several of
	// the simulation invariants).
	SkipTestFiles bool
	// Run inspects one package and reports findings through the pass.
	// Exactly one of Run and RunModule is set.
	Run func(*Pass)
	// RunModule inspects the whole loaded package set at once.
	RunModule func(*ModulePass)
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // already filtered per SkipTestFiles
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole loaded package set through one module
// analyzer run. Pkgs is already filtered per AppliesTo, and each
// package's file list per SkipTestFiles (see FilesOf).
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Fset     *token.FileSet

	files map[*Package][]*ast.File
	diags *[]Diagnostic
}

// FilesOf returns the analyzer's view of one package's files (test
// files already dropped when the analyzer asks for that).
func (p *ModulePass) FilesOf(pkg *Package) []*ast.File { return p.files[pkg] }

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full vmprovlint suite: the ten domain-specific
// determinism and invariant analyzers (v1's five per-package passes
// plus v2's snapshot-coverage, RNG-substream, spec-strictness,
// registry-hygiene, and dead-code passes) and the two stock-style
// correctness passes (local reduced-scope implementations of their
// x/tools namesakes).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimClockAnalyzer,
		SeededRandAnalyzer,
		MapOrderAnalyzer,
		ErrCmpAnalyzer,
		HotClosureAnalyzer,
		SnapshotFieldAnalyzer,
		SplitKeyAnalyzer,
		SpecStrictAnalyzer,
		RegistryAnalyzer,
		DeadCodeAnalyzer,
		NilnessAnalyzer,
		ShadowAnalyzer,
	}
}

// AnalyzerByName resolves one analyzer of the suite.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// RunAnalyzer applies one package-scoped analyzer to a loaded package
// and returns its raw (unsuppressed) diagnostics.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	if a.Run == nil {
		return nil
	}
	if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
		return nil
	}
	files := pkg.Syntax
	if a.SkipTestFiles {
		files = nonTestFiles(pkg.Fset, files)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		diags:     &diags,
	}
	a.Run(pass)
	return diags
}

// RunModuleAnalyzer applies one whole-program analyzer to the loaded
// package set and returns its raw (unsuppressed) diagnostics. Packages
// outside the analyzer's AppliesTo gate are dropped from the pass
// entirely.
func RunModuleAnalyzer(a *Analyzer, pkgs []*Package) []Diagnostic {
	if a.RunModule == nil {
		return nil
	}
	var kept []*Package
	files := map[*Package][]*ast.File{}
	var fset *token.FileSet
	for _, pkg := range pkgs {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		fs := pkg.Syntax
		if a.SkipTestFiles {
			fs = nonTestFiles(pkg.Fset, fs)
		}
		kept = append(kept, pkg)
		files[pkg] = fs
		fset = pkg.Fset
	}
	if len(kept) == 0 {
		return nil
	}
	var diags []Diagnostic
	a.RunModule(&ModulePass{
		Analyzer: a,
		Pkgs:     kept,
		Fset:     fset,
		files:    files,
		diags:    &diags,
	})
	return diags
}

// RunRaw applies the given analyzers — package-scoped per package,
// module-scoped once over the whole set — and returns every diagnostic
// BEFORE //vmprov:allow suppression, ordered by position. The
// stale-suppression audit rests on this view: an allow comment is live
// only if it covers at least one raw finding.
func RunRaw(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var all []Diagnostic
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				all = append(all, RunAnalyzer(a, pkg)...)
			}
		}
		all = append(all, RunModuleAnalyzer(a, pkgs)...)
	}
	SortDiagnostics(all)
	return all
}

// RunPackages applies the given analyzers to the loaded package set,
// drops suppressed findings, and returns the rest ordered by position.
func RunPackages(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	all := RunRaw(analyzers, pkgs)
	all = filterSuppressedAll(pkgs, all)
	SortDiagnostics(all)
	return all
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathGate builds an AppliesTo predicate matching packages whose import
// path contains an internal/<name> segment for one of the given names
// (the package itself or any subpackage).
func pathGate(names ...string) func(string) bool {
	re := regexp.MustCompile(`(^|/)internal/(` + strings.Join(names, "|") + `)(/|$)`)
	return re.MatchString
}

// withModuleRoot widens a path gate to also match the module root
// package — the facade files (sla.go, tracing.go, spec.go, ...)
// re-export simulation machinery and live under the same determinism
// contract as the internal packages they front.
func withModuleRoot(gate func(string) bool) func(string) bool {
	return func(path string) bool {
		return path == "vmprov" || gate(path)
	}
}

// isTestFile reports whether the file's name ends in _test.go.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !isTestFile(fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// packageRef resolves a selector base expression to an imported package
// path ("time", "math/rand", ...). It returns "" when the expression is
// not a package qualifier.
func packageRef(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
