package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Module    string // path of the module the package belongs to
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` on the given patterns and
// decodes the package stream. -export populates each package's Export
// field with its build-cache export-data file, which is what lets the
// type checker resolve imports without a module proxy or a vendored
// x/tools: the same mechanism `go vet` feeds its unitchecker.
func goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errBuf.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from a path→export-data-file map via
// the standard gc importer.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newTypesInfo allocates the full set of type-information maps the
// analyzers consume.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load enumerates, parses, and type-checks the packages matching the
// given go-list patterns (e.g. "./..."). Test files are not loaded:
// vmprovlint lints the code that ships, and several invariants are
// deliberately relaxed in tests.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the loader does not support", t.ImportPath)
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		if t.Module != nil {
			pkg.Module = t.Module.Path
		}
		out = append(out, pkg)
	}
	return out, nil
}

// typeCheck runs go/types over one package's parsed files.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := newTypesInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// LoadAndRun is the one-call driver behind cmd/vmprovlint: load every
// package matching the patterns, run the given analyzers, and return
// the surviving (unsuppressed) findings in deterministic order.
func LoadAndRun(analyzers []*Analyzer, patterns []string) ([]Diagnostic, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(analyzers, pkgs), nil
}
