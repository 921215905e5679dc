// Package spanleak implements the m3vlint analyzer that keeps span
// begin/end sites balanced. The flow latency attribution of PR 4 relies on
// every BeginSpan eventually meeting its EndSpan/EndSpanArgs: a leaked
// SpanRef leaves an open interval in the span stream, which corrupts
// self-time and critical-path reports without failing any runtime check.
//
// The check is intraprocedural and tracks local SpanRef variables: for
// each `ref := r.BeginSpan(...)` whose ref never escapes the function
// (no store to a field, no hand-off to a non-trace call, no return), every
// path from the begin to a function return — or out of the declaring
// block, where the ref's scope ends — must pass a close:
// r.EndSpan(ref, ...), r.EndSpanArgs(ref, ...), or a deferred equivalent
// (including `defer func() { r.EndSpan(ref, ...) }()`). A discarded
// BeginSpan result (`r.BeginSpan(...)` as a statement, or assigned to _)
// can never be closed and is always a finding.
//
// Refs that escape transfer ownership — the engine's long-lived spans park
// their refs in struct fields across events — and are exempt; panic paths
// terminate the analysis (the trace is already torn). Recorder methods are
// recognized by their defining package's import-path suffix
// "internal/trace", so fixtures can stub the real package.
package spanleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"m3v/internal/analysis"
)

// tracePkgSuffix identifies the span recorder's package (and fixture
// stubs of it).
const tracePkgSuffix = "internal/trace"

// Analyzer reports SpanRefs that are begun but not ended on every path.
var Analyzer = &analysis.Analyzer{
	Name: "spanleak",
	Doc: `require every BeginSpan to reach EndSpan/EndSpanArgs on all paths

A local SpanRef obtained from BeginSpan must be closed on every path out
of its function (or out of its declaring block): EndSpan, EndSpanArgs, or
a deferred close all count. Discarding the BeginSpan result is always a
finding. Refs that escape — stored in a field, passed on, returned — hand
their span to another owner and are exempt. Leaked spans corrupt flow
latency attribution; close them or carry the ref explicitly.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Name.Name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, "func literal", lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkBody finds the span begins of one body (excluding nested literals,
// which are scopes of their own) and verifies each.
func checkBody(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	c := &ctx{pass: pass, name: name, body: body}
	c.walkStmts(body.List)
}

type ctx struct {
	pass *analysis.Pass
	name string
	body *ast.BlockStmt
	obj  types.Object // the SpanRef variable under analysis
}

// walkStmts scans a statement list for begin sites, analyzing the tail of
// the list after each, and recurses into nested blocks.
func (c *ctx) walkStmts(stmts []ast.Stmt) {
	for i, s := range stmts {
		if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for j, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || traceMethod(c.pass, call) != "BeginSpan" {
					continue
				}
				id, ok := as.Lhs[j].(*ast.Ident)
				if !ok {
					continue // field or index store: the ref escapes
				}
				if id.Name == "_" {
					c.pass.Reportf(call.Pos(),
						"BeginSpan result discarded in %s: the span can never be ended; "+
							"keep the SpanRef and close it", c.name)
					continue
				}
				obj := c.pass.TypesInfo.ObjectOf(id)
				if obj == nil || c.escapes(obj) {
					continue
				}
				c.obj = obj
				f := c.seq(stmts[i+1:], false)
				if !f.ok || (f.falls && !f.closed) {
					c.pass.Reportf(call.Pos(),
						"span begun here is not ended on every path out of %s; "+
							"close it with EndSpan/EndSpanArgs (a deferred close works) before each return",
						c.name)
				}
				c.obj = nil
			}
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && traceMethod(c.pass, call) == "BeginSpan" {
				c.pass.Reportf(call.Pos(),
					"BeginSpan result discarded in %s: the span can never be ended; "+
						"keep the SpanRef and close it", c.name)
			}
		}
		for _, b := range childStmtLists(s) {
			c.walkStmts(b)
		}
	}
}

// escapes reports whether the ref is used anywhere that hands it off:
// anything but trace-package calls, comparisons/arithmetic, and its own
// definition transfers ownership and exempts the ref.
func (c *ctx) escapes(obj types.Object) bool {
	sanctioned := map[*ast.Ident]bool{}
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if traceMethod(c.pass, n) != "" {
				for _, a := range n.Args {
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						sanctioned[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				sanctioned[id] = true
			}
			if id, ok := ast.Unparen(n.Y).(*ast.Ident); ok {
				sanctioned[id] = true
			}
		}
		return true
	})
	escaped := false
	ast.Inspect(c.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || escaped {
			return !escaped
		}
		if c.pass.TypesInfo.Uses[id] == obj && !sanctioned[id] {
			escaped = true
		}
		return true
	})
	return escaped
}

// --- path analysis ----------------------------------------------------------

// flow is the effect of a statement (or sequence) on the tracked ref:
// ok means no function exit inside leaked; falls means execution can fall
// past it; closed means the ref is definitely closed if it does.
type flow struct {
	ok     bool
	falls  bool
	closed bool
}

func (c *ctx) seq(stmts []ast.Stmt, closed bool) flow {
	ok := true
	for _, s := range stmts {
		f := c.stmt(s, closed)
		ok = ok && f.ok
		if !f.falls {
			return flow{ok: ok}
		}
		closed = f.closed
	}
	return flow{ok: ok, falls: true, closed: closed}
}

func (c *ctx) stmt(s ast.Stmt, closed bool) flow {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if c.closes(s.X) {
			return flow{ok: true, falls: true, closed: true}
		}
		if isPanic(c.pass, s.X) {
			return flow{ok: true} // the trace is already torn
		}
		return flow{ok: true, falls: true, closed: closed}
	case *ast.DeferStmt:
		if c.deferCloses(s) {
			// Every exit after this point runs the deferred close.
			return flow{ok: true, falls: true, closed: true}
		}
		return flow{ok: true, falls: true, closed: closed}
	case *ast.ReturnStmt:
		return flow{ok: closed}
	case *ast.BlockStmt:
		return c.seq(s.List, closed)
	case *ast.IfStmt:
		th := c.seq(s.Body.List, closed)
		el := flow{ok: true, falls: true, closed: closed}
		if s.Else != nil {
			el = c.stmt(s.Else, closed)
		}
		out := flow{ok: th.ok && el.ok}
		switch {
		case th.falls && el.falls:
			out.falls, out.closed = true, th.closed && el.closed
		case th.falls:
			out.falls, out.closed = true, th.closed
		case el.falls:
			out.falls, out.closed = true, el.closed
		}
		return out
	case *ast.ForStmt:
		body := c.seq(s.Body.List, closed)
		falls := s.Cond != nil || hasBreak(s.Body)
		// The body may run zero times: closes inside it guarantee nothing.
		return flow{ok: body.ok, falls: falls, closed: closed}
	case *ast.RangeStmt:
		body := c.seq(s.Body.List, closed)
		return flow{ok: body.ok, falls: true, closed: closed}
	case *ast.SwitchStmt:
		return c.clauses(s.Body, closed, hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		return c.clauses(s.Body, closed, hasDefault(s.Body))
	case *ast.SelectStmt:
		return c.clauses(s.Body, closed, true) // one comm always runs
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, closed)
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path without exiting
		// the function.
		return flow{ok: true}
	}
	return flow{ok: true, falls: true, closed: closed}
}

// clauses folds the case/comm clauses of a switch or select.
func (c *ctx) clauses(body *ast.BlockStmt, closed, exhaustive bool) flow {
	if len(body.List) == 0 {
		return flow{ok: true, falls: true, closed: closed}
	}
	ok, anyFalls, allClosed := true, false, true
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			list = cl.Body
		case *ast.CommClause:
			list = cl.Body
		}
		f := c.seq(list, closed)
		ok = ok && f.ok
		if f.falls {
			anyFalls = true
			allClosed = allClosed && f.closed
		}
	}
	if !exhaustive {
		anyFalls = true
		allClosed = allClosed && closed
	}
	return flow{ok: ok, falls: anyFalls, closed: allClosed}
}

// closes reports whether the expression is EndSpan/EndSpanArgs with the
// tracked ref as first argument.
func (c *ctx) closes(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	m := traceMethod(c.pass, call)
	if m != "EndSpan" && m != "EndSpanArgs" {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && c.pass.TypesInfo.Uses[id] == c.obj
}

// deferCloses reports whether a defer statement closes the ref, directly
// or via a closure body.
func (c *ctx) deferCloses(d *ast.DeferStmt) bool {
	if c.closes(d.Call) {
		return true
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && c.closes(e) {
			found = true
		}
		return true
	})
	return found
}

// --- helpers ----------------------------------------------------------------

// traceMethod returns the method name of a call into the trace package
// (by import-path suffix), or "".
func traceMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if !strings.HasSuffix(fn.Pkg().Path(), tracePkgSuffix) {
		return ""
	}
	return fn.Name()
}

func isPanic(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "panic"
}

// childStmtLists enumerates the nested statement lists of one statement,
// for the begin-site scan (function literals excluded: separate scopes).
func childStmtLists(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, []ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		out = append(out, clauseBodies(s.Body)...)
	case *ast.TypeSwitchStmt:
		out = append(out, clauseBodies(s.Body)...)
	case *ast.SelectStmt:
		out = append(out, clauseBodies(s.Body)...)
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{s.Stmt})
	}
	return out
}

func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			out = append(out, cl.Body)
		case *ast.CommClause:
			out = append(out, cl.Body)
		}
	}
	return out
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// hasBreak reports whether a loop body contains a break that leaves it
// (nested loops and switches consume their own unlabeled breaks; labeled
// breaks are assumed to leave — conservative in the "falls through"
// direction).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}
