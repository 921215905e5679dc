// Package detmap implements the m3vlint analyzer that forbids
// order-sensitive iteration over maps in the simulator's deterministic
// packages. Go randomizes map iteration order per run, so a `for range`
// over a map whose body's effects depend on visit order breaks the
// bit-identical-runs guarantee — exactly the bug class behind the M3x
// driver's tile-rotation nondeterminism that PR 2 fixed by introducing the
// insertion-ordered tileOrder slice.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"m3v/internal/analysis"
)

// Analyzer flags `for range` over maps in deterministic packages unless
// the loop body is provably order-insensitive.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc: `forbid order-sensitive map iteration in deterministic packages

Map iteration order varies between runs. In the packages that must produce
bit-identical results (analysis.DeterministicPkgs: every package whose code
runs inside a simulation, and bench), every 'for range' over a map is
flagged unless its body is provably order-insensitive:

  - commutative accumulation only (x++, x--, x += e, x |= e, ... with a
    call-free right-hand side),
  - writes into another map keyed by the range key (out[k] = pure-expr),
  - delete(m2, k) keyed by the range key,
  - a bare key/value collect (s = append(s, k)) whose slice is sorted by
    the statement immediately following the loop, in the same block or
    case clause.

Anything else must iterate a sorted or insertion-ordered slice instead, or
carry a '//m3vlint:ignore detmap <reason>' directive.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.IsDeterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		inspectRanges(pass, f)
	}
	return nil, nil
}

// inspectRanges walks one file keeping enough ancestry to see the statement
// that follows each range loop (for the collect-then-sort pattern).
func inspectRanges(pass *analysis.Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if orderInsensitive(pass, rs) || collectThenSort(pass, rs, stack) {
			return true
		}
		pass.Reportf(rs.Pos(), "range over map in deterministic package %s: "+
			"iteration order varies between runs; iterate a sorted or insertion-ordered "+
			"slice instead, or annotate //m3vlint:ignore detmap <reason>", pass.Pkg.Path())
		return true
	})
}

// orderInsensitive reports whether every statement of the loop body is one
// of the recognized commutative or key-addressed forms.
func orderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	var stmtOK func(ast.Stmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return pure(s.X)
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
				token.AND_ASSIGN, token.XOR_ASSIGN:
				// Commutative accumulation: order of application does not
				// change the final value as long as the operand is pure.
				return pure(s.Lhs[0]) && pure(s.Rhs[0])
			case token.ASSIGN:
				// out[k] = pure-expr: map writes addressed by the range key
				// land on the same entries in any visit order.
				ix, ok := s.Lhs[0].(*ast.IndexExpr)
				if !ok || !isRangeKey(pass, ix.Index, key) {
					return false
				}
				xt := pass.TypesInfo.TypeOf(ix.X)
				if xt == nil {
					return false
				}
				if _, isMap := xt.Underlying().(*types.Map); !isMap {
					return false
				}
				return pure(s.Rhs[0])
			}
			return false
		case *ast.ExprStmt:
			// delete(m2, k): removals keyed by the range key commute.
			call, ok := s.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return false
			}
			if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "delete" {
				return false
			}
			return isRangeKey(pass, call.Args[1], key)
		case *ast.IfStmt:
			if s.Init != nil || !pure(s.Cond) {
				return false
			}
			for _, b := range s.Body.List {
				if !stmtOK(b) {
					return false
				}
			}
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					for _, b := range e.List {
						if !stmtOK(b) {
							return false
						}
					}
				case *ast.IfStmt:
					return stmtOK(e)
				default:
					return false
				}
			}
			return true
		case *ast.BlockStmt:
			for _, b := range s.List {
				if !stmtOK(b) {
					return false
				}
			}
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		}
		return false
	}
	for _, s := range rs.Body.List {
		if !stmtOK(s) {
			return false
		}
	}
	return true
}

// isRangeKey reports whether e denotes the loop's key variable.
func isRangeKey(pass *analysis.Pass, e ast.Expr, key *ast.Ident) bool {
	if key == nil || key.Name == "_" {
		return false
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	ko := pass.TypesInfo.ObjectOf(key)
	return ko != nil && pass.TypesInfo.ObjectOf(id) == ko
}

// pure reports whether evaluating e cannot have side effects visible
// outside the loop iteration: no calls, no function literals, no channel
// receives, no address-taking.
func pure(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			ok = false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW || n.Op == token.AND {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// collectThenSort recognizes the canonical deterministic-iteration idiom:
// the body only appends the range key (or value) to a slice, and the
// statement directly after the loop (in the same block or case clause)
// sorts that slice.
func collectThenSort(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	asn, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || asn.Tok != token.ASSIGN || len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return false
	}
	dst, ok := asn.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asn.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok {
		return false
	} else if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if src, ok := call.Args[0].(*ast.Ident); !ok ||
		pass.TypesInfo.ObjectOf(src) != pass.TypesInfo.ObjectOf(dst) {
		return false
	}
	// The appended element must be the range key or value identifier.
	elem, ok := call.Args[1].(*ast.Ident)
	if !ok {
		return false
	}
	eo := pass.TypesInfo.ObjectOf(elem)
	if eo == nil {
		return false
	}
	matchesVar := false
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if vid, ok := v.(*ast.Ident); ok && vid.Name != "_" && pass.TypesInfo.ObjectOf(vid) == eo {
			matchesVar = true
		}
	}
	if !matchesVar {
		return false
	}
	// Find the statement following the loop in its enclosing statement
	// list: a block, or the body of a switch or select case.
	var list []ast.Stmt
	switch parent := stack[len(stack)-2].(type) {
	case *ast.BlockStmt:
		list = parent.List
	case *ast.CaseClause:
		list = parent.Body
	case *ast.CommClause:
		list = parent.Body
	}
	var next ast.Stmt
	for j, s := range list {
		if s == ast.Stmt(rs) && j+1 < len(list) {
			next = list[j+1]
		}
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return false
	}
	for _, a := range sortCall.Args {
		if id, ok := a.(*ast.Ident); ok &&
			pass.TypesInfo.ObjectOf(id) == pass.TypesInfo.ObjectOf(dst) {
			return true
		}
	}
	return false
}
