// Package metricname implements the m3vlint analyzer that governs the
// names handed to the trace metrics registry. PR 2 had to dedupe a metric
// name collision by hand; this analyzer makes the three rules machine
// checked at every call to (*trace.Metrics).Counter,
// (*trace.Metrics).Histogram, and (*trace.Metrics).Gauge:
//
//   - names are statically derived: a string literal, a fmt.Sprintf of a
//     literal format, a prefix+literal concatenation, or a local variable
//     assigned only such shapes;
//   - names follow the component.noun convention: lowercase dotted
//     segments, [a-z][a-z0-9_]*, at least two segments (a dynamic prefix
//     counts as the leading component);
//   - every registration site's name (or name template) is unique across
//     the module.
//
// Test files are exempt: their registries are private to one test.
package metricname

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"m3v/internal/analysis"
)

// Analyzer checks metric registration names.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: `enforce literal, convention-following, unique metric names

Every (*trace.Metrics).Counter / Histogram / Gauge call must pass a name the
analyzer can resolve statically (literal, Sprintf of a literal format,
prefix+literal, or a local assigned only those), matching
component.noun[.more] with lowercase [a-z][a-z0-9_]* segments, and no two
registration sites may produce the same name or name template.`,
	Run: run,
}

// tracePkgSuffix identifies the registry package; matching by suffix keeps
// the analyzer testable against a fixture stub of the same import path.
const tracePkgSuffix = "internal/trace"

// segment is one dotted component of a metric name.
var segment = `[a-z][a-z0-9_]*`

var (
	fullName   = regexp.MustCompile(`^` + segment + `(\.` + segment + `)+$`)
	suffixName = regexp.MustCompile(`^` + segment + `(\.` + segment + `)*$`)
	verb       = regexp.MustCompile(`%[-+ #0-9.*]*[a-zA-Z]`)
)

// site records where a uniqueness key was first registered.
type site struct {
	pos token.Position
}

func run(pass *analysis.Pass) (interface{}, error) {
	seen, _ := pass.Store["sites"].(map[string]site)
	if seen == nil {
		seen = map[string]site{}
		pass.Store["sites"] = seen
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !registryCall(pass, call) {
				return true
			}
			keys, ok := resolve(pass, call.Args[0], true)
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"metric name is not statically derived: pass a string literal, "+
						"fmt.Sprintf of a literal format, or prefix+literal so names stay auditable")
				return true
			}
			for _, k := range keys {
				if k.diag != "" {
					pass.Reportf(call.Args[0].Pos(), "%s", k.diag)
					continue
				}
				if prev, dup := seen[k.key]; dup {
					pass.Reportf(call.Args[0].Pos(),
						"duplicate metric name %s: already registered at %s", k.display, prev.pos)
					continue
				}
				seen[k.key] = site{pos: pass.Fset.Position(call.Args[0].Pos())}
			}
			return true
		})
	}
	return nil, nil
}

// registryCall reports whether call is (*trace.Metrics).Counter,
// (*trace.Metrics).Histogram, or (*trace.Metrics).Gauge.
func registryCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Name() != "Counter" && fn.Name() != "Histogram" && fn.Name() != "Gauge" {
		return false
	}
	p := fn.Pkg().Path()
	if p != "m3v/"+tracePkgSuffix && !strings.HasSuffix(p, "/"+tracePkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Metrics"
}

// resolved is one statically derived name shape: a uniqueness key, a
// human-readable form, and optionally a convention diagnostic instead.
type resolved struct {
	key     string
	display string
	diag    string
}

// resolve classifies a name expression. followVars permits one level of
// local-variable resolution (the switchTarget idiom: build the name in a
// local, then register it).
func resolve(pass *analysis.Pass, e ast.Expr, followVars bool) ([]resolved, bool) {
	e = ast.Unparen(e)
	// Constant strings (literals, consts, folded concatenations).
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		if s, err := stringVal(tv.Value.ExactString()); err == nil {
			return []resolved{checkFull(s, fmt.Sprintf("%q", s))}, true
		}
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		// fmt.Sprintf("tile%02d.dtu.%s", ...): the format is the template.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf" && len(e.Args) > 0 {
				if tv, ok := pass.TypesInfo.Types[ast.Unparen(e.Args[0])]; ok && tv.Value != nil {
					if format, err := stringVal(tv.Value.ExactString()); err == nil {
						shaped := verb.ReplaceAllString(strings.ReplaceAll(format, "%%", "%"), "x0")
						r := checkFull(shaped, fmt.Sprintf("template %q", format))
						r.key = "tmpl:" + format
						return []resolved{r}, true
					}
				}
			}
		}
	case *ast.BinaryExpr:
		// prefix + "literal": the dynamic prefix is the component, the
		// literal completes the name. Unique per package and suffix.
		if e.Op == token.ADD {
			if tv, ok := pass.TypesInfo.Types[ast.Unparen(e.Y)]; ok && tv.Value != nil {
				if s, err := stringVal(tv.Value.ExactString()); err == nil {
					r := resolved{
						key:     "concat:" + pass.Pkg.Path() + ":" + s,
						display: fmt.Sprintf("suffix %q", s),
					}
					if !suffixName.MatchString(strings.TrimPrefix(s, ".")) {
						r.diag = fmt.Sprintf("metric name suffix %q violates the component.noun convention "+
							"(lowercase dotted segments, [a-z][a-z0-9_]*)", s)
					}
					return []resolved{r}, true
				}
			}
		}
	case *ast.Ident:
		// A local variable: resolvable when every assignment to it in the
		// enclosing function is itself resolvable.
		if !followVars {
			return nil, false
		}
		obj, ok := pass.TypesInfo.ObjectOf(e).(*types.Var)
		if !ok {
			return nil, false
		}
		fn := enclosingFunc(pass, e)
		if fn == nil {
			return nil, false
		}
		var out []resolved
		ok = true
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			asn, isAsn := n.(*ast.AssignStmt)
			if !isAsn || !ok {
				return ok
			}
			for i, lhs := range asn.Lhs {
				id, isID := lhs.(*ast.Ident)
				if !isID || pass.TypesInfo.ObjectOf(id) != obj || i >= len(asn.Rhs) {
					continue
				}
				rs, rok := resolve(pass, asn.Rhs[i], false)
				if !rok {
					ok = false
					return false
				}
				found = true
				out = append(out, rs...)
			}
			return true
		})
		if ok && found {
			return out, true
		}
	}
	return nil, false
}

// checkFull validates a complete name against the convention.
func checkFull(name, display string) resolved {
	r := resolved{key: "lit:" + name, display: display}
	if !fullName.MatchString(name) {
		r.diag = fmt.Sprintf("metric name %s violates the component.noun convention "+
			"(lowercase dotted segments, [a-z][a-z0-9_]*, at least two segments)", display)
	}
	return r
}

// stringVal decodes the exact string form of a constant.Value.
func stringVal(exact string) (string, error) {
	return strconv.Unquote(exact)
}

// enclosingFunc finds the innermost function declaration or literal
// containing e.
func enclosingFunc(pass *analysis.Pass, e ast.Expr) ast.Node {
	for _, f := range pass.Files {
		if e.Pos() < f.Pos() || e.Pos() > f.End() {
			continue
		}
		var best ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if n.Pos() <= e.Pos() && e.Pos() <= n.End() {
					best = n
				}
			}
			return true
		})
		return best
	}
	return nil
}
