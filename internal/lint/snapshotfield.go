package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapshotFieldAnalyzer verifies snapshot coverage: for every type that
// carries a Snapshot/Restore method pair in the stateful simulation
// packages, every persistent struct field must be referenced by the
// Snapshot side and by the Restore side (directly or through helper
// methods of the same type). The MPC lookahead, checkpoint forks, pooled
// replication contexts (which rewind by restoring zero snapshots), and
// the whole bit-identity contract of run→snapshot→restore→continue rest
// on snapshots being complete: a field added to a stateful type but
// forgotten in its snapshot pair corrupts restored runs silently, and
// only a golden test that happens to exercise the field would ever
// notice. This analyzer turns that heisenbug into a CI failure.
//
// Persistent means mutated: a field counts only if package code outside
// the snapshot pair (and outside plain constructor functions returning
// the type) assigns it, increments it, takes its address, or calls a
// pointer-receiver method on it. Immutable configuration set once at
// construction needs no snapshot and is skipped automatically. A field
// that IS mutated but deliberately outside the snapshot — an RNG
// substream captured by the root stream-tree snapshot, engine wiring
// re-established by Setup — is opted out on its declaration with a
// mandatory reason:
//
//	//vmprov:ephemeral -- <reason>
//
// A type may instead group its scalar state in an embedded struct that
// its snapshot type embeds too, so each side copies it in one assignment
// and completeness holds by construction. What such a copy can still get
// wrong is sharing: a slice or map inside the embedded struct would be
// aliased between the component and its snapshot rather than copied. So
// an embedded struct of a type with a Snapshot/Restore pair must hold no
// slice or map, searching nested structs and arrays; pointers are
// identities and pass.
var SnapshotFieldAnalyzer = &Analyzer{
	Name: "snapshotfield",
	Doc: "require every mutated struct field of a type with a Snapshot/Restore pair to be covered by " +
		"both sides (opt out per field with //vmprov:ephemeral -- <reason>), and its embedded state " +
		"structs to hold no slice or map; incomplete or aliased snapshots corrupt restored runs silently",
	AppliesTo: pathGate("sim", "app", "cloud", "provision", "metrics", "fault",
		"fluid", "mpc", "stats", "workload", "forecast"),
	SkipTestFiles: true,
	Run:           runSnapshotField,
}

// typeMethods indexes one named struct type's method declarations.
type typeMethods struct {
	name    *types.TypeName
	spec    *ast.TypeSpec
	methods map[string]*ast.FuncDecl
}

func runSnapshotField(pass *Pass) {
	byType := collectTypeMethods(pass)
	mutations := collectFieldMutations(pass)
	names := make([]string, 0, len(byType))
	for n := range byType {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tm := byType[n]
		st, ok := tm.spec.Type.(*ast.StructType)
		if !ok {
			continue
		}
		capture, haveCap := tm.methods["Snapshot"]
		restore, haveRes := tm.methods["Restore"]
		if !haveCap || !haveRes {
			continue
		}
		capMentions, capAll, capDecls := fieldMentions(pass, tm, capture)
		resMentions, resAll, resDecls := fieldMentions(pass, tm, restore)
		excluded := constructorDecls(pass, tm)
		for fd := range capDecls {
			excluded[fd] = true
		}
		for fd := range resDecls {
			excluded[fd] = true
		}
		for _, field := range st.Fields.List {
			if ephemeralField(field) {
				continue
			}
			if len(field.Names) == 0 {
				if t := pass.TypesInfo.TypeOf(field.Type); t != nil {
					name := types.ExprString(field.Type)
					if path, kind, ok := valueBuffer(t, name); ok {
						pass.Reportf(field.Pos(), "embedded state %s of %s holds a %s (%s): a whole-value copy "+
							"shares it between the component and its snapshot — keep it beside the state and "+
							"copy it explicitly", name, n, kind, path)
					}
				}
				continue
			}
			for _, id := range field.Names {
				if id.Name == "_" {
					continue
				}
				obj, _ := pass.TypesInfo.Defs[id].(*types.Var)
				if obj == nil || !mutatedOutside(mutations[obj], excluded) {
					continue // never mutated after construction: nothing to snapshot
				}
				if !capAll && !capMentions[id.Name] {
					pass.Reportf(id.Pos(), "mutated field %s.%s is not referenced in Snapshot; "+
						"a restored run silently keeps its future value — snapshot it or mark it "+
						"//vmprov:ephemeral -- <reason>", n, id.Name)
				}
				if !resAll && !resMentions[id.Name] {
					pass.Reportf(id.Pos(), "mutated field %s.%s is not referenced in Restore; "+
						"a restored run silently keeps its future value — restore it or mark it "+
						"//vmprov:ephemeral -- <reason>", n, id.Name)
				}
			}
		}
	}
}

// valueBuffer finds the first slice or map held by value in t — through
// nested structs and arrays, not through pointers — and returns its
// selector path from root and its kind.
func valueBuffer(t types.Type, root string) (path, kind string, ok bool) {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return root, "slice", true
	case *types.Map:
		return root, "map", true
	case *types.Array:
		return valueBuffer(u.Elem(), root+"[i]")
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if path, kind, ok := valueBuffer(f.Type(), root+"."+f.Name()); ok {
				return path, kind, true
			}
		}
	}
	return "", "", false
}

// constructorDecls returns the plain constructor functions for a type:
// receiver-less declarations whose results include T or *T. Field
// assignments there are construction, not runtime mutation.
func constructorDecls(pass *Pass, tm *typeMethods) map[*ast.FuncDecl]bool {
	out := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Type.Results == nil {
				continue
			}
			for _, res := range fd.Type.Results.List {
				t := pass.TypesInfo.TypeOf(res.Type)
				if t == nil {
					continue
				}
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok && named.Obj() == tm.name {
					out[fd] = true
					break
				}
			}
		}
	}
	return out
}

// mutatedOutside reports whether any mutation site's enclosing
// declaration is outside the excluded set.
func mutatedOutside(sites map[*ast.FuncDecl]bool, excluded map[*ast.FuncDecl]bool) bool {
	for fd := range sites {
		if !excluded[fd] {
			return true
		}
	}
	return false
}

// collectFieldMutations indexes, for every struct field object in the
// package, the function declarations that mutate it: assign to it
// (possibly through index/star wrappers), increment it, take its
// address, or call a pointer-receiver method on a value-typed field (the
// implicit &recv.f). Two mutation shapes are deliberately NOT counted:
//
//   - method calls on pointer- or interface-typed fields mutate the
//     pointee, never the field value itself — the pointee's state is its
//     own snapshot concern (the RNG tree, the kernel, the collector all
//     have their own pairs);
//   - self-defaulting assignments — `if f.X <= 0 { f.X = def }` — are
//     one-time normalization of construction-time configuration, not
//     runtime state evolution.
func collectFieldMutations(pass *Pass) map[*types.Var]map[*ast.FuncDecl]bool {
	out := map[*types.Var]map[*ast.FuncDecl]bool{}
	resolve := func(e ast.Expr) *types.Var {
		sel := baseFieldSelector(e)
		if sel == nil {
			return nil
		}
		v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		return v
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			add := func(v *types.Var) {
				if out[v] == nil {
					out[v] = map[*ast.FuncDecl]bool{}
				}
				out[v][fd] = true
			}
			guards := defaultingGuards(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if v := resolve(lhs); v != nil && !guards.covers(v, lhs.Pos()) {
							add(v)
						}
					}
				case *ast.IncDecStmt:
					if v := resolve(n.X); v != nil {
						add(v)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						if v := resolve(n.X); v != nil {
							add(v)
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s := pass.TypesInfo.Selections[sel]
					if s == nil || s.Kind() != types.MethodVal {
						return true
					}
					fn, ok := s.Obj().(*types.Func)
					if !ok || !pointerReceiver(fn) {
						return true
					}
					if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
						switch t.Underlying().(type) {
						case *types.Pointer, *types.Interface:
							return true // mutates the pointee, not the field
						}
					}
					if v := resolve(sel.X); v != nil {
						add(v)
					}
				}
				return true
			})
		}
	}
	return out
}

// guardSpans records, for one function body, the extents of if-bodies
// whose condition tests a struct field — the self-defaulting pattern.
type guardSpans []struct {
	lo, hi token.Pos
	fields map[*types.Var]bool
}

func (g guardSpans) covers(v *types.Var, pos token.Pos) bool {
	for _, s := range g {
		if pos >= s.lo && pos < s.hi && s.fields[v] {
			return true
		}
	}
	return false
}

// defaultingGuards collects the if-statements in fd whose condition
// compares a struct field on the LEFT of ==, <, or <= — the idiomatic
// defaulting/clamping shape (`if c.X <= 0`, `if a.Fit < floor`) —
// keyed by span, so assignments to those same fields inside the guarded
// body can be recognized as normalization. The operand position matters:
// a running-max update (`if v > m.peak { m.peak = v }`) puts the field
// on the right and stays a counted mutation.
func defaultingGuards(pass *Pass, fd *ast.FuncDecl) guardSpans {
	var out guardSpans
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Cond == nil {
			return true
		}
		fields := map[*types.Var]bool{}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			be, ok := c.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.EQL, token.LSS, token.LEQ:
			default:
				return true
			}
			sel, ok := ast.Unparen(be.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				fields[v] = true
			}
			return true
		})
		if len(fields) > 0 {
			out = append(out, struct {
				lo, hi token.Pos
				fields map[*types.Var]bool
			}{ifs.Body.Pos(), ifs.Body.End(), fields})
		}
		return true
	})
	return out
}

// baseFieldSelector strips index, slice, star, and paren wrappers off
// an lvalue and returns the innermost selector expression, if any.
func baseFieldSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pointerReceiver reports whether a method's receiver is a pointer.
func pointerReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().(*types.Pointer)
	return ok
}

// collectTypeMethods indexes every named struct type declared in the
// package together with its method declarations.
func collectTypeMethods(pass *Pass) map[string]*typeMethods {
	out := map[string]*typeMethods{}
	// Types first, so methods in earlier files than their type resolve.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				out[ts.Name.Name] = &typeMethods{
					name:    tn,
					spec:    ts,
					methods: map[string]*ast.FuncDecl{},
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			rt := recvTypeName(fd)
			if rt == "" {
				continue
			}
			if tm, ok := out[rt]; ok {
				tm.methods[fd.Name.Name] = fd
			}
		}
	}
	return out
}

// recvTypeName returns the name of a method's receiver type, stripping
// one pointer indirection.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		if id, ok := ix.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// ephemeralField reports whether the field declaration carries a
// well-formed //vmprov:ephemeral opt-out (doc comment or trailing).
func ephemeralField(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if isEphemeralComment(c) {
				return true
			}
		}
	}
	return false
}

// fieldMentions walks one side of a snapshot pair plus every same-type
// helper method transitively reachable from it, and returns the set of
// receiver field names referenced plus the visited declarations. all is
// true when the receiver escapes whole (dereferenced as *recv, or
// passed bare into a call or assignment), in which case any helper may
// touch every field and the analyzer assumes full coverage rather than
// guessing.
func fieldMentions(pass *Pass, tm *typeMethods, root *ast.FuncDecl) (mentions map[string]bool, all bool, visited map[*ast.FuncDecl]bool) {
	mentions = map[string]bool{}
	visited = map[*ast.FuncDecl]bool{}
	queue := []*ast.FuncDecl{root}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if visited[fd] || fd.Body == nil {
			continue
		}
		visited[fd] = true
		recv := recvObject(pass, fd)
		// First pass: record the idents that serve as selector bases and
		// collect field mentions and same-type helper calls.
		selBases := map[*ast.Ident]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					selBases[id] = true
					if recv != nil && pass.TypesInfo.Uses[id] == recv {
						mentions[n.Sel.Name] = true
					}
				}
			case *ast.CallExpr:
				if helper := sameTypeMethod(pass, tm, n); helper != nil {
					queue = append(queue, helper)
				}
			}
			return true
		})
		// Second pass: any bare receiver use outside a selector base means
		// the receiver escaped whole.
		if recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || selBases[id] {
				return true
			}
			if pass.TypesInfo.Uses[id] == recv {
				all = true
			}
			return true
		})
	}
	return mentions, all, visited
}

// recvObject resolves a method's receiver variable object.
func recvObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// sameTypeMethod resolves a call expression to a method declaration on
// the same named type (called on any value of that type, so recursive
// helpers like RNG.capture walking substream children are followed).
func sameTypeMethod(pass *Pass, tm *typeMethods, call *ast.CallExpr) *ast.FuncDecl {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fd, ok := tm.methods[sel.Sel.Name]
	if !ok {
		return nil
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() != tm.name {
		return nil
	}
	return fd
}
