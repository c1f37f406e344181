package lint

// Tests for the v2 whole-program suite: fixtures for the four new
// analyzers, the seeded-bug check proving snapshotfield catches an
// uncovered field, per-analyzer determinism, and the stale-suppression
// audit that keeps //vmprov:allow comments honest.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestSnapshotFieldAnalyzer(t *testing.T) {
	runFixture(t, SnapshotFieldAnalyzer, "snapshotfield/internal/sim")
	// False-positive guard: out-of-gate packages report nothing.
	runFixture(t, SnapshotFieldAnalyzer, "snapshotfield/plain")
}

func TestSplitKeyAnalyzer(t *testing.T) {
	runFixture(t, SplitKeyAnalyzer, "splitkey/stream")
}

func TestSpecStrictAnalyzer(t *testing.T) {
	runFixture(t, SpecStrictAnalyzer, "specstrict/internal/experiment")
	// False-positive guard: out-of-gate packages report nothing.
	runFixture(t, SpecStrictAnalyzer, "specstrict/plain")
}

func TestRegistryAnalyzer(t *testing.T) {
	runFixture(t, RegistryAnalyzer, "registry/reg")
}

func TestDeadCodeAnalyzer(t *testing.T) {
	runFixture(t, DeadCodeAnalyzer, "deadcode/internal/engine", "deadcode", "deadcode/cmd/tool")
	// Without the module's root package loaded the pass cannot tell dead
	// code from code used elsewhere, so it reports nothing.
	partial := loadFixturePkgs(t, "deadcode/internal/engine")
	if diags := RunPackages([]*Analyzer{DeadCodeAnalyzer}, partial); len(diags) != 0 {
		t.Errorf("partial load reported findings: %v", diags)
	}
}

// seededBase is the template for the seeded-bug check: a type whose
// snapshot pair fully covers its fields, with slots to inject one more
// field and one more mutation.
const seededBase = `package sim

type Acc struct {
	sum float64
	%s
}

func (a *Acc) Add(v float64) {
	a.sum += v
	%s
}

type AccSnap struct{ Sum float64 }

func (a *Acc) Snapshot(s *AccSnap) { s.Sum = a.sum }
func (a *Acc) Restore(s *AccSnap)  { a.sum = s.Sum }
`

func runSeeded(t *testing.T, field, mutation string) []Diagnostic {
	t.Helper()
	imp := fixtureImporter(t)
	src := fmt.Sprintf(seededBase, field, mutation)
	f, err := parser.ParseFile(fixtureFset, "seeded_sim.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := typeCheck(fixtureFset, "seeded/internal/sim", []*ast.File{f}, imp)
	if err != nil {
		t.Fatal(err)
	}
	return RunPackages([]*Analyzer{SnapshotFieldAnalyzer}, []*Package{pkg})
}

// TestSnapshotFieldCatchesSeededBug is the acceptance check for the
// analyzer's purpose: adding a mutated field to a type WITHOUT touching
// its snapshot pair must produce findings on both sides, and the
// original complete type must stay clean.
func TestSnapshotFieldCatchesSeededBug(t *testing.T) {
	if diags := runSeeded(t, "", ""); len(diags) != 0 {
		t.Fatalf("complete snapshot pair reported findings: %v", diags)
	}
	diags := runSeeded(t, "lost int", "a.lost++")
	if len(diags) != 2 {
		t.Fatalf("seeded uncovered field: got %d findings, want 2 (Snapshot and Restore): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "Acc.lost") {
			t.Errorf("finding does not name the seeded field: %s", d)
		}
	}
}

// seededDeadFacade and seededDeadLib form a two-package module in which
// every declaration is reached: the facade's API calls the library's one
// function. The %s slot takes one more library declaration.
const (
	seededDeadFacade = `package seeded

import "seeded/internal/lib"

func API() int { return lib.Used() }
`
	seededDeadLib = `package lib

func Used() int { return 1 }

%s
`
)

func runSeededDead(t *testing.T, extra string) []Diagnostic {
	t.Helper()
	imp := fixturePkgImporter{local: map[string]*types.Package{}, std: fixtureImporter(t)}
	var pkgs []*Package
	for _, src := range []struct{ path, code string }{
		{"seeded/internal/lib", fmt.Sprintf(seededDeadLib, extra)},
		{"seeded", seededDeadFacade},
	} {
		f, err := parser.ParseFile(fixtureFset, src.path+"/seeded.go", src.code, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := typeCheck(fixtureFset, src.path, []*ast.File{f}, imp)
		if err != nil {
			t.Fatal(err)
		}
		pkg.Module = "seeded"
		imp.local[src.path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return RunPackages([]*Analyzer{DeadCodeAnalyzer}, pkgs)
}

// TestDeadCodeCatchesSeededDecl is the acceptance check for deadcode's
// purpose: one exported function that nothing calls gives exactly one
// finding, and the module without it stays clean.
func TestDeadCodeCatchesSeededDecl(t *testing.T) {
	if diags := runSeededDead(t, ""); len(diags) != 0 {
		t.Fatalf("fully reached module reported findings: %v", diags)
	}
	diags := runSeededDead(t, "func Unused() int { return 2 }")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "lib.Unused") {
		t.Fatalf("seeded unused function: got %v, want exactly one finding naming lib.Unused", diags)
	}
}

// The module-wide tests share one load of the real tree.
var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and lints the full module; skipped in -short")
	}
	moduleOnce.Do(func() { modulePkgs, moduleErr = Load([]string{"vmprov/..."}) })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// TestTreeIsCleanV2 runs the full v2 suite — package and module
// analyzers — over the real module, the same gate as make lint, so a
// violation anywhere in the tree fails go test even where CI scripts
// diverge. It supersedes v1's TestTreeIsClean.
func TestTreeIsCleanV2(t *testing.T) {
	pkgs := loadModule(t)
	for _, d := range RunPackages(Analyzers(), pkgs) {
		t.Errorf("%s", d)
	}
}

// TestAnalyzersAreDeterministic runs every analyzer twice over the same
// loaded packages and requires byte-identical findings in identical
// order — the suite's own bit-identity contract.
func TestAnalyzersAreDeterministic(t *testing.T) {
	pkgs := loadModule(t)
	for _, a := range Analyzers() {
		first := renderDiags(RunRaw([]*Analyzer{a}, pkgs))
		second := renderDiags(RunRaw([]*Analyzer{a}, pkgs))
		if first != second {
			t.Errorf("analyzer %s is nondeterministic:\n--- first\n%s--- second\n%s", a.Name, first, second)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSuppressionsHaveLiveFindings is the stale-allow audit: every
// //vmprov:allow comment in the tree must cover at least one finding of
// the raw (pre-suppression) run. A suppression whose finding has been
// fixed or moved is rot — it silently licenses a future violation.
func TestSuppressionsHaveLiveFindings(t *testing.T) {
	pkgs := loadModule(t)
	raw := RunRaw(Analyzers(), pkgs)
	for _, site := range allowances(pkgs) {
		live := false
		for _, d := range raw {
			if site.Covers(d) {
				live = true
				break
			}
		}
		if !live {
			t.Errorf("%s:%d: stale //vmprov:allow %v — no live finding under it; delete the comment",
				site.File, site.Line, site.Analyzers)
		}
	}
}

// allowanceSite is one //vmprov:allow comment in the loaded source, for
// the stale-suppression audit: a site is live only if the raw
// (pre-suppression) run produces at least one finding it covers.
type allowanceSite struct {
	File      string
	Line      int      // line the comment sits on; it also covers Line+1
	Analyzers []string // sorted
}

// allowances collects every well-formed //vmprov:allow comment across
// the loaded packages, ordered by position.
func allowances(pkgs []*Package) []allowanceSite {
	var out []allowanceSite
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			seen := map[int]bool{}
			for line, as := range parseAllowances(pkg, f) {
				for _, a := range as {
					if a.line != line || seen[line] {
						continue // entries are doubled onto line+1
					}
					seen[line] = true
					names := make([]string, 0, len(a.analyzers))
					for n := range a.analyzers {
						names = append(names, n)
					}
					sort.Strings(names)
					out = append(out, allowanceSite{
						File:      pkg.Fset.Position(f.Pos()).Filename,
						Line:      line,
						Analyzers: names,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Covers reports whether the allowance suppresses the diagnostic.
func (s allowanceSite) Covers(d Diagnostic) bool {
	if d.Pos.Filename != s.File {
		return false
	}
	if d.Pos.Line != s.Line && d.Pos.Line != s.Line+1 {
		return false
	}
	for _, n := range s.Analyzers {
		if n == d.Analyzer {
			return true
		}
	}
	return false
}
