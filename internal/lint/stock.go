package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file hosts the two stock-style correctness passes that round out
// the vmprovlint multichecker. They are local, reduced-scope
// implementations of their golang.org/x/tools namesakes (nilness,
// shadow): the build environment is hermetic with no module proxy, so
// the real passes (and the SSA machinery nilness needs) cannot be
// vendored. Each lite pass keeps the high-signal core of its namesake
// and leans conservative. Lock copies are left to `go vet` (which make
// ci runs unchanged) and its full copylocks pass.

// NilnessAnalyzer (lite) flags uses of a value inside the body of an
// `if x == nil` check that are guaranteed to panic: field or method
// access through a nil pointer, calling a nil func, indexing a nil
// slice, dereferencing a nil pointer. Unlike the SSA-based x/tools
// nilness it only reasons about this one syntactic dominator, which is
// the shape the bug virtually always takes.
var NilnessAnalyzer = &Analyzer{
	Name:          "nilness",
	Doc:           "flag guaranteed nil dereferences inside an `if x == nil` body (lite, syntactic)",
	SkipTestFiles: true,
	Run:           runNilness,
}

func runNilness(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || ifs.Init != nil {
				return true
			}
			id := nilCheckedVar(pass, ifs.Cond)
			if id == nil {
				return true
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || reassignedWithin(pass, ifs.Body, obj) {
				return true
			}
			reportNilUses(pass, ifs.Body, obj)
			return true
		})
	}
}

// nilCheckedVar matches `x == nil` / `nil == x` where x is a plain
// variable of pointer, func, or slice type.
func nilCheckedVar(pass *Pass, cond ast.Expr) *ast.Ident {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(pass, x) {
		x, y = y, x
	} else if !isNilIdent(pass, y) {
		return nil
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	t := pass.TypesInfo.TypeOf(id)
	if t == nil {
		return nil
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Slice:
		return id
	}
	return nil
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// reassignedWithin reports whether obj is assigned anywhere in the
// block (in which case the nil fact no longer holds).
func reassignedWithin(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// reportNilUses flags guaranteed-panic uses of the known-nil obj in the
// block. Func literals are skipped: they may run after reassignment.
func reportNilUses(pass *Pass, body *ast.BlockStmt, obj types.Object) {
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.ObjectOf(id) == obj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if isObj(n.X) {
				if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Pointer); ok {
					pass.Reportf(n.Pos(), "%s is nil here; selecting %s.%s will panic",
						obj.Name(), obj.Name(), n.Sel.Name)
				}
			}
		case *ast.StarExpr:
			if isObj(n.X) {
				pass.Reportf(n.Pos(), "%s is nil here; dereferencing it will panic", obj.Name())
			}
		case *ast.IndexExpr:
			if isObj(n.X) {
				if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Slice); ok {
					pass.Reportf(n.Pos(), "%s is a nil slice here; indexing it will panic", obj.Name())
				}
			}
		case *ast.CallExpr:
			if isObj(n.Fun) {
				pass.Reportf(n.Pos(), "%s is a nil func here; calling it will panic", obj.Name())
			}
		}
		return true
	})
}

// ShadowAnalyzer (lite) flags a declaration that shadows an outer
// variable of identical type when the outer variable is still used
// after the inner scope ends — the pattern where an inner `x := ...`
// silently diverts an assignment (classically err) that outer code
// later reads. Same heuristics as the x/tools shadow pass, minus its
// control-flow refinements.
var ShadowAnalyzer = &Analyzer{
	Name:          "shadow",
	Doc:           "flag declarations shadowing an outer variable of the same type that is used after the inner scope (lite)",
	SkipTestFiles: true,
	Run:           runShadow,
}

func runShadow(pass *Pass) {
	initScopes := initClauseScopes(pass)
	for id, obj := range pass.TypesInfo.Defs {
		v, ok := obj.(*types.Var)
		if !ok || v.Name() == "_" || v.IsField() {
			continue
		}
		inner := v.Parent()
		if inner == nil || inner == pass.Pkg.Scope() {
			continue
		}
		// `if err := f(); err != nil` and friends: a declaration in a
		// statement's init clause is scoped to that one statement and
		// idiomatic, not a shadow.
		if initScopes[inner] {
			continue
		}
		// Look outward for a same-named variable, stopping before the
		// package scope (shadowing globals is idiomatic).
		var outer *types.Var
		for s := inner.Parent(); s != nil && s != pass.Pkg.Scope() && s != types.Universe; s = s.Parent() {
			if o, ok := s.Lookup(v.Name()).(*types.Var); ok && o.Pos() < v.Pos() {
				outer = o
				break
			}
		}
		if outer == nil || !types.Identical(outer.Type(), v.Type()) {
			continue
		}
		// Only a shadow if the outer variable is read again after the
		// inner scope closes — otherwise the redeclaration is harmless.
		usedAfter := false
		for useID, useObj := range pass.TypesInfo.Uses {
			if useObj == outer && useID.Pos() > inner.End() {
				usedAfter = true
				break
			}
		}
		if !usedAfter {
			continue
		}
		pass.Reportf(id.Pos(), "declaration of %q shadows declaration at %s; the outer variable is used after this scope",
			v.Name(), pass.Fset.Position(outer.Pos()))
	}
}

// initClauseScopes collects the scopes belonging to if/for/switch
// statements themselves (as opposed to their block bodies): variables
// declared there live only for that statement.
func initClauseScopes(pass *Pass) map[*types.Scope]bool {
	out := map[*types.Scope]bool{}
	for node, scope := range pass.TypesInfo.Scopes {
		switch node.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			out[scope] = true
		}
	}
	return out
}
