package lint

import (
	"go/ast"
	"strings"
)

// allowPrefix introduces a suppression comment. The full form is
//
//	//vmprov:allow <analyzer>[,<analyzer>...] -- <reason>
//
// placed either on the flagged line itself (trailing) or on the line
// directly above it. The reason after " -- " is mandatory: a bare allow
// comment suppresses nothing, so every suppression in the tree explains
// itself.
const allowPrefix = "vmprov:allow"

// allowance is one parsed suppression comment.
type allowance struct {
	analyzers map[string]bool
	line      int // line the comment sits on
}

// parseAllowances extracts every well-formed suppression comment from a
// file, keyed by the lines it covers (its own line and the line below).
func parseAllowances(pkg *Package, f *ast.File) map[int][]allowance {
	out := map[int][]allowance{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
			names, reason, found := strings.Cut(rest, "--")
			if !found || strings.TrimSpace(reason) == "" {
				// No reason given: not a valid suppression.
				continue
			}
			a := allowance{analyzers: map[string]bool{}, line: pkg.Fset.Position(c.Pos()).Line}
			for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
				a.analyzers[n] = true
			}
			if len(a.analyzers) == 0 {
				continue
			}
			out[a.line] = append(out[a.line], a)
			out[a.line+1] = append(out[a.line+1], a)
		}
	}
	return out
}

// filterSuppressedAll drops diagnostics covered by an allow comment on
// the same line or the line directly above, across the whole loaded
// package set (module analyzers report into any package's files).
func filterSuppressedAll(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	byFile := map[string]map[int][]allowance{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			name := pkg.Fset.Position(f.Pos()).Filename
			byFile[name] = parseAllowances(pkg, f)
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if suppressed(byFile[d.Pos.Filename], d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func suppressed(allow map[int][]allowance, d Diagnostic) bool {
	for _, a := range allow[d.Pos.Line] {
		if a.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}

// ephemeralPrefix marks a struct field the snapshotfield analyzer must
// not require coverage for. The full form is
//
//	//vmprov:ephemeral -- <reason>
//
// on the field's own line, its doc comment, or the line directly above.
// Like allow comments, the reason after " -- " is mandatory.
const ephemeralPrefix = "vmprov:ephemeral"

// isEphemeralComment reports whether one comment is a well-formed
// ephemeral opt-out (reason present).
func isEphemeralComment(c *ast.Comment) bool {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, ephemeralPrefix) {
		return false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ephemeralPrefix))
	_, reason, found := strings.Cut(rest, "--")
	return found && strings.TrimSpace(reason) != ""
}
