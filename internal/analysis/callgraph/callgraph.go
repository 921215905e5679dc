// Package callgraph builds a module-wide static call graph from the
// type-checked ASTs of an m3vlint run. It is the fact layer under the
// interprocedural analyzers (transitive noalloc, simblock): per-package
// Run calls feed each package's functions into a Builder stored in the
// analyzer's module Store, and the module pass finalizes the Builder into
// a Graph once every package has been collected.
//
// Resolution rules:
//
//   - Direct calls of declared functions and methods on concrete receivers
//     resolve to one static edge (method-set resolution follows embedded
//     promotions via go/types selections).
//   - Calls through interface methods become interface edges; Impls
//     resolves them conservatively to every concrete type in the scanned
//     module that implements the interface (class-hierarchy analysis).
//   - Function literals are nodes of their own: a directly-called literal
//     gets a static edge, any other literal becomes a Ref of its enclosing
//     function (it may run whenever the enclosing function ran).
//   - Calls through function values (variables, fields, method values
//     bound earlier) are dynamic edges with no callee; analyzers decide
//     how conservative to be about them.
//   - Method values and function values referenced without being called
//     become Refs, so reachability analyses can treat "escapes into a
//     callback table" as "may run".
//
// Cross-package identity: the offline loader type-checks each analyzed
// package from source but resolves its imports from export data, so the
// same function is represented by distinct go/types objects in its
// defining package and in its callers. Nodes are therefore keyed by a
// stable symbol string (package path + receiver + name), which makes the
// two views meet in one node.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"m3v/internal/analysis"
)

// storeKey indexes the Builder inside an analyzer's shared Store.
const storeKey = "callgraph"

// Kind classifies a call edge.
type Kind uint8

// Edge kinds.
const (
	// KindStatic is a direct call of a declared function, a method on a
	// concrete receiver, or a function literal.
	KindStatic Kind = iota
	// KindInterface is a call through an interface method; Impls lists the
	// conservative target set.
	KindInterface
	// KindDynamic is a call through a function value; the callee is
	// unresolvable statically.
	KindDynamic
)

// An Edge is one call site inside a Node's body.
type Edge struct {
	// Pos is the call expression's position.
	Pos token.Pos
	// Kind classifies the resolution.
	Kind Kind
	// Callee is the resolved target for static edges and the interface
	// method's node for interface edges; nil for dynamic edges.
	Callee *Node
	// Desc describes unresolvable callees for diagnostics ("function value
	// fn", "interface method (io.Writer).Write").
	Desc string
	// Defer and Go mark calls taken via defer and go statements.
	Defer bool
	Go    bool
	// InPanic marks calls evaluated only as arguments of panic: failure
	// paths that alloc/blocking analyses exempt.
	InPanic bool
	// Variadic marks calls of variadic functions without a ... spread (the
	// call site boxes its trailing arguments into a fresh slice).
	Variadic bool
}

// A Node is one function: a declared function or method, a function
// literal, or an external function imported from outside the scanned
// units (Body-less).
type Node struct {
	// Sym is the stable symbol key ("pkg.Func", "(pkg.Type).Method").
	Sym string
	// Fn is a representative types object (nil only for literals).
	Fn *types.Func
	// Decl is the source declaration; nil for literals and externals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared and external functions.
	Lit *ast.FuncLit
	// PkgPath is the defining package's import path.
	PkgPath string
	// Pos is the declaration or literal position (NoPos for externals).
	Pos token.Pos
	// Calls are the call sites in the body, in source order.
	Calls []Edge
	// Refs are functions and literals referenced as values in the body
	// without being called there.
	Refs []*Node
}

// Body returns the node's body, or nil for externals.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// External reports whether the node has no body in the scanned units.
func (n *Node) External() bool { return n.Decl == nil && n.Lit == nil }

// String returns the symbol, or a placeholder for literals.
func (n *Node) String() string { return n.Sym }

// RelString renders the node relative to a package: same-package symbols
// drop the path prefix, which keeps diagnostic chains readable.
func (n *Node) RelString(from string) string {
	if n.Lit != nil {
		if n.PkgPath == from {
			return "func literal"
		}
		return "func literal in " + n.PkgPath
	}
	if n.PkgPath != from || n.Fn == nil {
		return n.Sym
	}
	sig, ok := n.Fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = true
		}
		if named, okn := t.(*types.Named); okn {
			if ptr {
				return fmt.Sprintf("(*%s).%s", named.Obj().Name(), n.Fn.Name())
			}
			return fmt.Sprintf("%s.%s", named.Obj().Name(), n.Fn.Name())
		}
	}
	return n.Fn.Name()
}

// symbol derives the stable cross-package key of a function object.
func symbol(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name())
		}
		return fmt.Sprintf("(%s).%s", t.String(), fn.Name())
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// A Builder accumulates one package at a time. It lives in the analyzer's
// Store so all packages of one driver run share it.
type Builder struct {
	nodes    map[string]*Node
	lits     map[*ast.FuncLit]*Node
	order    []*Node // declared/literal nodes in collection order
	concrete []types.Type
	pkgs     map[string]bool
	litSeq   int
}

// Collect feeds the pass's package into the Builder kept in pass.Store,
// creating it on first use. It is a no-op if the package was already
// collected (the Store is shared across analyzers only within one
// analyzer, so each analyzer pays its own collection).
func Collect(pass *analysis.Pass) *Builder {
	b, _ := pass.Store[storeKey].(*Builder)
	if b == nil {
		b = &Builder{
			nodes: map[string]*Node{},
			lits:  map[*ast.FuncLit]*Node{},
			pkgs:  map[string]bool{},
		}
		pass.Store[storeKey] = b
	}
	if b.pkgs[pass.Pkg.Path()] {
		return b
	}
	b.pkgs[pass.Pkg.Path()] = true

	// Concrete named types of this package, for interface resolution.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.concrete = append(b.concrete, named)
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := b.declared(obj)
			n.Decl = fd
			n.Pos = fd.Pos()
			b.walkBody(pass, n, fd.Body)
		}
	}
	return b
}

// declared returns (creating if needed) the node for a function object.
func (b *Builder) declared(fn *types.Func) *Node {
	sym := symbol(fn)
	n := b.nodes[sym]
	if n == nil {
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		n = &Node{Sym: sym, Fn: fn, PkgPath: pkgPath}
		b.nodes[sym] = n
		b.order = append(b.order, n)
	} else if n.Fn == nil {
		n.Fn = fn
	}
	return n
}

// NodeOf returns the already-collected node of a function object, or nil.
// Analyzers use it during their per-package Run to key their own facts by
// graph node; unlike declared it never creates nodes.
func (b *Builder) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return b.nodes[symbol(fn)]
}

// LitOf returns the already-collected node of a function literal, or nil.
func (b *Builder) LitOf(lit *ast.FuncLit) *Node { return b.lits[lit] }

// litNode returns (creating if needed) the node for a function literal.
func (b *Builder) litNode(pass *analysis.Pass, lit *ast.FuncLit) *Node {
	if n := b.lits[lit]; n != nil {
		return n
	}
	b.litSeq++
	n := &Node{
		Sym:     fmt.Sprintf("%s.func#%d", pass.Pkg.Path(), b.litSeq),
		Lit:     lit,
		PkgPath: pass.Pkg.Path(),
		Pos:     lit.Pos(),
	}
	b.lits[lit] = n
	b.order = append(b.order, n)
	return n
}

// bodyFacts is the first pass over one body: which expressions are call
// callees (so the reference walk does not double-count them), which calls
// are defer/go, and which source ranges are panic arguments.
type bodyFacts struct {
	callee map[ast.Node]bool
	deferC map[*ast.CallExpr]bool
	goC    map[*ast.CallExpr]bool
	panics [][2]token.Pos
}

func (b *Builder) facts(pass *analysis.Pass, body *ast.BlockStmt) *bodyFacts {
	fx := &bodyFacts{
		callee: map[ast.Node]bool{},
		deferC: map[*ast.CallExpr]bool{},
		goC:    map[*ast.CallExpr]bool{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // inner literals get their own facts
		case *ast.DeferStmt:
			fx.deferC[n.Call] = true
		case *ast.GoStmt:
			fx.goC[n.Call] = true
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			fx.callee[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				fx.callee[sel.Sel] = true
			}
			if id, ok := fun.(*ast.Ident); ok {
				if bo, okb := pass.TypesInfo.ObjectOf(id).(*types.Builtin); okb && bo.Name() == "panic" && len(n.Args) == 1 {
					fx.panics = append(fx.panics, [2]token.Pos{n.Lparen, n.Rparen})
				}
			}
		}
		return true
	})
	return fx
}

func (fx *bodyFacts) inPanic(pos token.Pos) bool {
	for _, r := range fx.panics {
		if pos > r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// walkBody records the call edges and function-value references of one
// body into node. Nested literals recurse with their own node.
func (b *Builder) walkBody(pass *analysis.Pass, node *Node, body *ast.BlockStmt) {
	fx := b.facts(pass, body)
	refSel := map[*ast.Ident]bool{} // Sel idents consumed by a method-value ref
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			b.call(pass, node, fx, n)
			return true
		case *ast.FuncLit:
			ln := b.litNode(pass, n)
			if !fx.callee[n] {
				node.Refs = append(node.Refs, ln)
			}
			b.walkBody(pass, ln, n.Body)
			return false
		case *ast.SelectorExpr:
			if fx.callee[n] {
				return true // the call edge covers it; still visit X below
			}
			if fn, ok := pass.TypesInfo.ObjectOf(n.Sel).(*types.Func); ok {
				node.Refs = append(node.Refs, b.declared(fn))
				refSel[n.Sel] = true
			}
			return true
		case *ast.Ident:
			if fx.callee[n] || refSel[n] {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[n].(*types.Func); ok {
				node.Refs = append(node.Refs, b.declared(fn))
			}
			return true
		}
		return true
	})
}

// call classifies one call expression into an edge on node.
func (b *Builder) call(pass *analysis.Pass, node *Node, fx *bodyFacts, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	e := Edge{
		Pos:     call.Lparen,
		Defer:   fx.deferC[call],
		Go:      fx.goC[call],
		InPanic: fx.inPanic(call.Pos()),
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiations f[T](...) to the underlying operand.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := pass.TypesInfo.Uses[rootIdent(ix.X)].(*types.Func); ok {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if _, ok := pass.TypesInfo.Uses[rootIdent(ix.X)].(*types.Func); ok {
			fun = ast.Unparen(ix.X)
		}
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		e.Kind = KindStatic
		e.Callee = b.litNode(pass, f)
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[f].(type) {
		case *types.Func:
			e.Kind = KindStatic
			e.Callee = b.declared(obj)
		case *types.Builtin:
			return // make/new/append/len/... are constructs, not calls
		case *types.TypeName, nil:
			return // conversion
		default:
			e.Kind = KindDynamic
			e.Desc = "function value " + f.Name
		}
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[f]; sel != nil && sel.Kind() == types.MethodVal {
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return
			}
			e.Callee = b.declared(m)
			if types.IsInterface(recvOf(m)) {
				e.Kind = KindInterface
				e.Desc = "interface method " + e.Callee.Sym
			} else {
				e.Kind = KindStatic
			}
		} else {
			switch obj := pass.TypesInfo.Uses[f.Sel].(type) {
			case *types.Func:
				e.Kind = KindStatic
				e.Callee = b.declared(obj)
			case *types.Builtin, *types.TypeName, nil:
				return // unsafe.Sizeof, conversions
			default:
				e.Kind = KindDynamic
				e.Desc = "function value " + f.Sel.Name
			}
		}
	default:
		e.Kind = KindDynamic
		e.Desc = "function value"
	}
	if e.Callee != nil && e.Callee.Fn != nil && !call.Ellipsis.IsValid() {
		// Boxing happens only when arguments actually land in the variadic
		// slot; a call with none passes a nil slice.
		if sig, ok := e.Callee.Fn.Type().(*types.Signature); ok && sig.Variadic() && len(call.Args) >= sig.Params().Len() {
			e.Variadic = true
		}
	}
	node.Calls = append(node.Calls, e)
}

// recvOf returns the receiver's type, dereferenced, or nil for functions.
func recvOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// A Graph is the finalized module-wide view.
type Graph struct {
	b     *Builder
	impls map[string][]*Node // interface-method symbol -> concrete targets
}

// Finalize resolves the Builder in the module Store into a Graph. Safe to
// call from multiple analyzers' module passes; each Store holds its own
// Builder.
func Finalize(store map[string]interface{}) *Graph {
	b, _ := store[storeKey].(*Builder)
	if b == nil {
		b = &Builder{nodes: map[string]*Node{}, lits: map[*ast.FuncLit]*Node{}, pkgs: map[string]bool{}}
	}
	return &Graph{b: b, impls: map[string][]*Node{}}
}

// Nodes returns every declared and literal node in collection order
// (deterministic: the driver feeds packages in sorted import-path order).
func (g *Graph) Nodes() []*Node { return g.b.order }

// NodeOf returns the node of a function object, or nil if never seen.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.b.nodes[symbol(fn)]
}

// LitOf returns the node of a function literal, or nil.
func (g *Graph) LitOf(lit *ast.FuncLit) *Node { return g.b.lits[lit] }

// Impls conservatively resolves an interface edge: every method of a
// concrete type in the scanned module that implements the interface. The
// result is cached per interface method.
func (g *Graph) Impls(e Edge) []*Node {
	if e.Kind != KindInterface || e.Callee == nil || e.Callee.Fn == nil {
		return nil
	}
	sym := e.Callee.Sym
	if cached, ok := g.impls[sym]; ok {
		return cached
	}
	var out []*Node
	iface, _ := recvOf(e.Callee.Fn).Underlying().(*types.Interface)
	if iface != nil {
		name := e.Callee.Fn.Name()
		for _, t := range g.b.concrete {
			impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
			if !impl {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, e.Callee.Fn.Pkg(), name)
			if m, ok := obj.(*types.Func); ok {
				if n := g.b.nodes[symbol(m)]; n != nil {
					out = append(out, n)
				}
			}
		}
	}
	g.impls[sym] = out
	return out
}

// rootIdent returns the leftmost identifier of a (possibly selected or
// parenthesized) expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
