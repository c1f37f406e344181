package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCodeAnalyzer reports every package-level declaration of the
// module's non-test code that no program root reaches, so code that
// only tests call cannot pile up unnoticed. The roots are
//
//   - every main and init function, and every package-level variable's
//     type and initializer (they run at start-up: interface assertions
//     and registry calls live there);
//   - the facade, the package at the module root: its exported
//     identifiers, and the exported methods of every module type its
//     API reaches through aliases, exported signatures and exported or
//     embedded struct fields.
//
// A reference from reached code reaches a declaration. A method of a
// reached type is also reached when its name is the name of a method of
// any interface the program mentions, or of a standard interface the
// standard library calls implicitly (String, Error, MarshalJSON, ...).
// Matching by name is deliberately conservative: a dynamic call the
// pass cannot follow must never make live code look dead.
//
// Reachability is a property of the whole program, so the pass needs
// the whole module loaded (./...): over a package set without the
// facade it reports nothing. A finding is cleared in one of three ways:
// delete the declaration; move it into the _test.go files of the one
// package whose tests use it; or, for an oracle that another package's
// tests need, keep it under
//
//	//vmprov:allow deadcode -- <the test that needs it>
var DeadCodeAnalyzer = &Analyzer{
	Name: "deadcode",
	Doc: "report package-level declarations that no program root (main, init, package-var " +
		"initializers, the facade's exported API) reaches: delete them, move them into the tests " +
		"that use them, or keep a cross-package test oracle under an allow comment",
	SkipTestFiles: true,
	RunModule:     runDeadCode,
}

// implicitMethods are the methods the standard library calls through
// interfaces the program never names: fmt's, errors' and the encoders'.
var implicitMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalText", "UnmarshalText", "MarshalJSON", "UnmarshalJSON",
}

// deadDecl is one package-level declaration the pass can report.
type deadDecl struct {
	pkg    *Package
	name   string    // as reported: "Name" or "Type.Method"
	pos    token.Pos // the declared name
	node   ast.Node  // the syntax whose references a reached declaration reaches
	method string    // method name, for methods
}

type deadCodeState struct {
	decls   map[string]*deadDecl
	methods map[string][]string // type key -> its method keys
	iface   map[string]bool     // method names of every interface in view
	reached map[string]bool
	queue   []string
	inAPI   map[string]bool // module types the facade's API reaches
}

func runDeadCode(pass *ModulePass) {
	var facade *Package
	for _, pkg := range pass.Pkgs {
		if pkg.Path == pkg.Module {
			facade = pkg
		}
	}
	if facade == nil {
		return // a partial load cannot tell dead code from code used elsewhere
	}
	s := &deadCodeState{
		decls:   map[string]*deadDecl{},
		methods: map[string][]string{},
		iface:   map[string]bool{},
		reached: map[string]bool{},
		inAPI:   map[string]bool{},
	}
	for _, name := range implicitMethods {
		s.iface[name] = true
	}
	// Record every declaration and reach what the start-up roots refer
	// to; reaching only queues a key, so a root may name a declaration
	// recorded later.
	for _, pkg := range pass.Pkgs {
		s.collectIfaceNames(pkg)
		for _, f := range pass.FilesOf(pkg) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						s.visit(pkg, d)
						continue
					}
					fn := pkg.TypesInfo.Defs[d.Name]
					key := declKey(fn)
					if key == "" {
						continue
					}
					dd := &deadDecl{pkg: pkg, name: d.Name.Name, pos: d.Name.Pos(), node: d}
					if d.Recv != nil {
						named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
						dd.name = named.Obj().Name() + "." + d.Name.Name
						dd.method = d.Name.Name
						recv := declKey(named.Obj())
						s.methods[recv] = append(s.methods[recv], key)
					}
					s.decls[key] = dd
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							s.declare(pkg, sp.Name, sp)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								s.visit(pkg, sp)
							}
							for _, id := range sp.Names {
								s.declare(pkg, id, sp)
							}
						}
					}
				}
			}
		}
	}
	scope := facade.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			s.reach(declKey(obj))
			s.apiType(obj.Type())
		}
	}
	for len(s.queue) > 0 {
		key := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if d := s.decls[key]; d != nil {
			s.visit(d.pkg, d.node)
		}
		for _, m := range s.methods[key] {
			if s.iface[s.decls[m].method] {
				s.reach(m)
			}
		}
	}
	for key, d := range s.decls { // RunRaw sorts the findings
		if !s.reached[key] {
			pass.Reportf(d.pos, "%s.%s is reached from no program root (main, init, package-var "+
				"initializers, the facade's exported API): delete it, move it into the tests that use it, "+
				"or keep it for another package's tests under //vmprov:allow deadcode -- <the test that needs it>",
				d.pkg.Types.Name(), d.name)
		}
	}
}

// declare records one package-level type, variable or constant.
func (s *deadCodeState) declare(pkg *Package, id *ast.Ident, node ast.Node) {
	if key := declKey(pkg.TypesInfo.Defs[id]); key != "" { // "" is the blank identifier
		s.decls[key] = &deadDecl{pkg: pkg, name: id.Name, pos: id.Pos(), node: node}
	}
}

// reach marks one declaration reached and queues its references.
func (s *deadCodeState) reach(key string) {
	if key == "" || s.reached[key] {
		return
	}
	s.reached[key] = true
	s.queue = append(s.queue, key)
}

// visit reaches every package-level declaration the syntax refers to.
func (s *deadCodeState) visit(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			s.reach(declKey(pkg.TypesInfo.Uses[id]))
		}
		return true
	})
}

// apiType walks one type of the facade's API: every module type it
// reaches is reached, with its exported methods.
func (s *deadCodeState) apiType(t types.Type) {
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		key := declKey(named.Obj())
		if s.decls[key] == nil || s.inAPI[key] {
			return // outside the module, or already walked
		}
		s.inAPI[key] = true
		s.reach(key)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				s.reach(declKey(m))
				s.apiType(m.Type())
			}
		}
		t = named.Underlying()
	}
	for _, part := range typeParts(t) {
		s.apiType(part)
	}
}

// collectIfaceNames records the method names of every interface type
// one package's code mentions, directly or as a part of the types of its
// expressions and of the objects it declares and uses: a value passed as
// an I, stored in a []I or assigned to an I field is called through I.
func (s *deadCodeState) collectIfaceNames(pkg *Package) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		u := t.Underlying()
		if it, ok := u.(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				s.iface[it.Method(i).Name()] = true
			}
		}
		for _, part := range typeParts(u) {
			walk(part)
		}
	}
	for _, tv := range pkg.TypesInfo.Types {
		walk(tv.Type)
	}
	for _, obj := range pkg.TypesInfo.Defs {
		if obj != nil {
			walk(obj.Type())
		}
	}
	for _, obj := range pkg.TypesInfo.Uses {
		walk(obj.Type())
	}
}

// typeParts returns the types a value of type t gives its user: element,
// key, parameter and result types, the exported or embedded fields of a
// struct, and the signatures of an interface's methods.
func typeParts(t types.Type) []types.Type {
	var parts []types.Type
	switch t := t.(type) {
	case *types.Pointer:
		parts = append(parts, t.Elem())
	case *types.Slice:
		parts = append(parts, t.Elem())
	case *types.Array:
		parts = append(parts, t.Elem())
	case *types.Chan:
		parts = append(parts, t.Elem())
	case *types.Map:
		parts = append(parts, t.Key(), t.Elem())
	case *types.Signature:
		parts = append(parts, t.Params(), t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			parts = append(parts, t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				parts = append(parts, f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			parts = append(parts, t.Method(i).Type())
		}
	}
	return parts
}

// declKey names a package-level declaration by its package path, its
// receiver type for a method, and its name. Every package sees its
// imports through export data, so one declaration is a different
// types.Object in each importing package; only its name identifies it
// across the module. Anything else — locals, fields, interface methods,
// the blank identifier — has no key.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin() // an instantiation names its generic declaration
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := receiverNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return ""
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverNamed returns the named type of a method receiver (T or *T).
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}
