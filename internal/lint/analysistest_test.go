package lint

// This file is the package's miniature analysistest: fixture packages
// live under testdata/src/<dir>, their import path is <dir> itself (so a
// fixture named simclock/internal/sim trips the same path gates as real
// code), and expectations are trailing comments of the form
//
//	// want `regexp`
//
// Each want pattern must be matched by a diagnostic on its line and
// every diagnostic must be claimed by a want pattern, mirroring
// golang.org/x/tools/go/analysis/analysistest (backquoted patterns
// only). Diagnostics are collected through Run, i.e. after
// //vmprov:allow suppression, so fixtures also exercise the escape
// hatch: a flagged construct with an allow comment and no want line
// fails the test if suppression breaks.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureDeps are the standard-library packages fixture code may import.
// Their export data is resolved once via `go list -export`.
var fixtureDeps = []string{"encoding/json", "errors", "io", "math/rand", "math/rand/v2", "sort", "sync", "time"}

var (
	fixtureOnce   sync.Once
	fixtureFset   = token.NewFileSet()
	fixtureImp    types.Importer
	fixtureImpErr error
)

func fixtureImporter(t *testing.T) types.Importer {
	t.Helper()
	fixtureOnce.Do(func() {
		exports, err := ExportData(fixtureDeps)
		if err != nil {
			fixtureImpErr = err
			return
		}
		fixtureImp = exportImporter(fixtureFset, exports)
	})
	if fixtureImpErr != nil {
		t.Fatalf("loading fixture export data: %v", fixtureImpErr)
	}
	return fixtureImp
}

// loadFixturePkg parses and type-checks the one fixture package rooted
// at testdata/src/<dir>; dir doubles as the package's import path.
func loadFixturePkg(t *testing.T, dir string) *Package {
	t.Helper()
	imp := fixtureImporter(t)
	full := filepath.Join("testdata", "src", filepath.FromSlash(dir))
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fixtureFset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files under %s", full)
	}
	pkg, err := typeCheck(fixtureFset, dir, files, imp)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

type lineKey struct {
	file string
	line int
}

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// wantPatternRe extracts the backquoted patterns of a // want comment.
var wantPatternRe = regexp.MustCompile("`([^`]*)`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*wantEntry {
	t.Helper()
	out := map[lineKey][]*wantEntry{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantPatternRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without a backquoted pattern", pos)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					k := lineKey{pos.Filename, pos.Line}
					out[k] = append(out[k], &wantEntry{re: re})
				}
			}
		}
	}
	return out
}

// runFixture checks one analyzer against one fixture package: the
// post-suppression diagnostics must match the // want comments exactly.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg := loadFixturePkg(t, dir)
	diags := Run([]*Analyzer{a}, pkg)
	wants := collectWants(t, pkg.Fset, pkg.Syntax)
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

func TestSimClockAnalyzer(t *testing.T) {
	runFixture(t, SimClockAnalyzer, "simclock/internal/sim")
	// False-positive guard: cmd/ trees are outside the gate.
	runFixture(t, SimClockAnalyzer, "simclock/cmd/tool")
}

func TestSeededRandAnalyzer(t *testing.T) {
	runFixture(t, SeededRandAnalyzer, "seededrand/app")
}

func TestMapOrderAnalyzer(t *testing.T) {
	runFixture(t, MapOrderAnalyzer, "maporder/internal/report")
	// False-positive guard: packages outside the gate may iterate freely.
	runFixture(t, MapOrderAnalyzer, "maporder/plain")
}

func TestErrCmpAnalyzer(t *testing.T) {
	runFixture(t, ErrCmpAnalyzer, "errcmp/cloudish")
}

func TestHotClosureAnalyzer(t *testing.T) {
	runFixture(t, HotClosureAnalyzer, "hotclosure/internal/app")
}

func TestNilnessAnalyzer(t *testing.T) {
	runFixture(t, NilnessAnalyzer, "nilness/a")
}

func TestShadowAnalyzer(t *testing.T) {
	runFixture(t, ShadowAnalyzer, "shadow/a")
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		got, ok := AnalyzerByName(a.Name)
		if !ok || got != a {
			t.Errorf("AnalyzerByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := AnalyzerByName("nope"); ok {
		t.Error("AnalyzerByName accepted an unknown name")
	}
}
