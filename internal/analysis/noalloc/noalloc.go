// Package noalloc implements the m3vlint analyzer that checks functions
// annotated //m3v:noalloc for allocating constructs. It is the static
// complement to the runtime testing.AllocsPerRun guards on the engine hot
// path: the runtime guards prove the steady state allocates nothing, this
// analyzer points at the construct when a change reintroduces allocation.
//
// The check has two layers. The per-package layer inspects every annotated
// body for allocating constructs directly (make, new, append, escaping
// literals, capturing closures, interface boxing, go statements). The
// module layer then walks the call graph (internal/analysis/callgraph) and
// propagates the guarantee transitively: an annotated function may only
// call functions that are themselves annotated, proven alloc-free by body
// inspection (recursively, over the whole module), or on the explicit
// allowlist of alloc-free standard-library packages. Anything else — an
// allocating helper two hops away, a call through a function value or an
// interface, a variadic call that boxes its arguments — is a diagnostic at
// the call site naming the offending call chain.
//
// The analyzer stays conservative in both directions: it flags constructs
// the compiler sometimes optimizes away (append into a slice with spare
// capacity, boxing of small integers) and it refuses to follow dynamic
// calls. Justified cases carry an //m3vlint:ignore noalloc <reason>
// directive at the use site, which keeps every exception visible and
// explained in the source; a directive on an allocation witness inside an
// unannotated helper marks that witness as justified for the transitive
// proof too.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"m3v/internal/analysis"
	"m3v/internal/analysis/callgraph"
)

// Analyzer checks //m3v:noalloc functions for allocating constructs and
// propagates the guarantee through the module call graph.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: `forbid allocating constructs in //m3v:noalloc functions, transitively

Functions carrying the //m3v:noalloc doc annotation form the engine's
allocation-free hot path (event scheduling and dispatch, the disabled-trace
fast path). Inside them the analyzer flags:

  - make and new,
  - slice and map composite literals, and struct/array literals whose
    address is taken,
  - append (the backing array may grow),
  - function literals that capture variables of the enclosing function,
  - conversions of non-pointer-shaped values to interface types (boxing),
    including implicit conversions at calls, assignments, and returns,
  - go statements (the spawn allocates).

The guarantee propagates through calls: an annotated function may only
call functions that are themselves annotated, proven alloc-free by body
inspection over the module call graph, or on the standard-library
allowlist (sync/atomic, math, math/bits). Calls through function values,
interface methods, and variadic calls that box their arguments are flagged
because they cannot be proven.

Arguments of panic calls are exempt: a panicking simulator is already out
of the measurement. Justified exceptions (amortized growth of a reusable
buffer, dispatch through audited callback slots) take an
//m3vlint:ignore noalloc <reason> directive at the use site — also inside
unannotated helpers, where it justifies the allocation witness for the
transitive proof.`,
	Run:       run,
	RunModule: runModule,
}

// factsKey indexes the per-function witness facts inside the analyzer's
// module store (the callgraph Builder lives in the same store under its
// own key).
const factsKey = "noalloc.facts"

// AllowPkgs lists standard-library packages whose functions are accepted
// as alloc-free callees without a body to inspect: pure arithmetic and
// atomic intrinsics.
var AllowPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// AllowSyms lists individual external functions accepted as alloc-free.
// Mutex operations park on contention but never allocate.
var AllowSyms = map[string]bool{
	"(sync.Mutex).Lock":      true,
	"(sync.Mutex).Unlock":    true,
	"(sync.Mutex).TryLock":   true,
	"(sync.RWMutex).Lock":    true,
	"(sync.RWMutex).Unlock":  true,
	"(sync.RWMutex).RLock":   true,
	"(sync.RWMutex).RUnlock": true,
}

// A witness is one allocating construct found in a function body. desc
// composes into both message forms: "<desc> in //m3v:noalloc function
// <name><hint>" for the intraprocedural report, "g -> h: <desc>" for
// transitive call chains.
type witness struct {
	pos  token.Pos
	desc string
	hint string
}

// fnFact is the per-function record the module pass consumes.
type fnFact struct {
	annotated bool
	wits      []witness
}

func run(pass *analysis.Pass) (interface{}, error) {
	b := callgraph.Collect(pass)
	facts, _ := pass.Store[factsKey].(map[*callgraph.Node]*fnFact)
	if facts == nil {
		facts = map[*callgraph.Node]*fnFact{}
		pass.Store[factsKey] = facts
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			node := b.NodeOf(obj)
			annotated := analysis.HasNoAllocMarker(fd)
			sig, _ := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
			c := &checker{pass: pass, start: fd.Pos(), sig: sig}
			c.block(fd.Body)
			if node != nil {
				facts[node] = &fnFact{annotated: annotated, wits: c.wits}
			}
			if annotated {
				for _, w := range c.wits {
					pass.Reportf(w.pos, "%s in //m3v:noalloc function %s%s",
						w.desc, fd.Name.Name, w.hint)
				}
			}
			// Every function literal is a node of its own; collect its body
			// witnesses so the module pass can prove directly-called
			// literals.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				ln := b.LitOf(lit)
				if ln == nil {
					return true
				}
				lsig, _ := pass.TypesInfo.TypeOf(lit).(*types.Signature)
				lc := &checker{pass: pass, start: lit.Pos(), sig: lsig}
				lc.block(lit.Body)
				facts[ln] = &fnFact{wits: lc.wits}
				return true
			})
		}
	}
	return nil, nil
}

// --- module pass: transitive proof ------------------------------------------

func runModule(mp *analysis.ModulePass) (interface{}, error) {
	facts, _ := mp.Store[factsKey].(map[*callgraph.Node]*fnFact)
	if facts == nil {
		return nil, nil
	}
	p := &prover{
		g:     callgraph.Finalize(mp.Store),
		facts: facts,
		mp:    mp,
		memo:  map[*callgraph.Node]*proof{},
	}
	for _, n := range p.g.Nodes() {
		if f := facts[n]; f != nil && f.annotated {
			p.checkRoot(n)
		}
	}
	return nil, nil
}

// A proof is the memoized verdict on one node: alloc-free or not, and if
// not, the call trail from the node down to the reason.
type proof struct {
	ok     bool
	trail  []*callgraph.Node
	reason string
}

type prover struct {
	g     *callgraph.Graph
	facts map[*callgraph.Node]*fnFact
	mp    *analysis.ModulePass
	memo  map[*callgraph.Node]*proof
}

// checkRoot reports every edge of an annotated function that leaves the
// proven-alloc-free world. Diagnostics land at the call site and pass
// through the driver's ignore-directive filter.
func (p *prover) checkRoot(n *callgraph.Node) {
	name := n.RelString(n.PkgPath)
	for _, e := range n.Calls {
		if e.InPanic {
			continue // failure path: allocation is irrelevant
		}
		if e.Go {
			continue // the go-statement body witness already flags the spawn
		}
		if e.Variadic {
			p.mp.Reportf(e.Pos,
				"variadic call of %s boxes its arguments into a fresh slice in //m3v:noalloc function %s; "+
					"spread a reused slice with ... or justify with an ignore directive",
				e.Callee.RelString(n.PkgPath), name)
		}
		switch e.Kind {
		case callgraph.KindDynamic:
			p.mp.Reportf(e.Pos,
				"call through %s in //m3v:noalloc function %s cannot be proven alloc-free; "+
					"route it through an annotated function or justify with an ignore directive",
				e.Desc, name)
		case callgraph.KindInterface:
			p.mp.Reportf(e.Pos,
				"call through %s in //m3v:noalloc function %s cannot be proven alloc-free; "+
					"justify with an ignore directive naming the audited implementations",
				e.Desc, name)
		case callgraph.KindStatic:
			if pr := p.prove(e.Callee); !pr.ok {
				p.mp.Reportf(e.Pos,
					"call to %s in //m3v:noalloc function %s is not alloc-free: %s",
					e.Callee.RelString(n.PkgPath), name, pr.chain(n.PkgPath))
			}
		}
	}
}

// chain renders the failure trail relative to the reporting package:
// "helper -> deeper: make allocates".
func (pr *proof) chain(from string) string {
	names := make([]string, len(pr.trail))
	for i, t := range pr.trail {
		names[i] = t.RelString(from)
	}
	return strings.Join(names, " -> ") + ": " + pr.reason
}

// prove decides whether a node is alloc-free: annotated nodes are trusted
// (they carry their own check), external nodes must be allowlisted, and
// everything else needs a witness-free body whose static callees all prove
// recursively. Cycles are assumed alloc-free while being proven
// (coinduction): recursion alone does not allocate. Ignore directives
// consulted through mp.Suppressed justify individual witnesses and
// unresolvable edges inside unannotated helpers, and count as used for the
// stale-suppression audit.
func (p *prover) prove(n *callgraph.Node) *proof {
	if pr, ok := p.memo[n]; ok {
		return pr
	}
	pr := &proof{ok: true}
	p.memo[n] = pr
	f := p.facts[n]
	fail := func(trail []*callgraph.Node, reason string) {
		pr.ok = false
		pr.trail = trail
		pr.reason = reason
	}
	switch {
	case f != nil && f.annotated:
		return pr // trusted: checkRoot covers its body and edges
	case n.External():
		if AllowPkgs[n.PkgPath] || AllowSyms[n.Sym] {
			return pr
		}
		fail([]*callgraph.Node{n}, "declared outside the module and not on the alloc-free allowlist")
		return pr
	case f == nil:
		fail([]*callgraph.Node{n}, "body not scanned by this run")
		return pr
	}
	for _, w := range f.wits {
		if p.mp.Suppressed(w.pos) {
			continue // justified at the witness site
		}
		fail([]*callgraph.Node{n}, w.desc)
		return pr
	}
	for _, e := range n.Calls {
		if e.InPanic || e.Go {
			continue // panic: failure path; go: flagged by the body witness
		}
		if e.Variadic && !p.mp.Suppressed(e.Pos) {
			fail([]*callgraph.Node{n}, fmt.Sprintf(
				"variadic call of %s boxes its arguments", e.Callee.RelString(n.PkgPath)))
			return pr
		}
		switch e.Kind {
		case callgraph.KindDynamic, callgraph.KindInterface:
			if !p.mp.Suppressed(e.Pos) {
				fail([]*callgraph.Node{n}, "calls "+e.Desc+", which cannot be proven alloc-free")
				return pr
			}
		case callgraph.KindStatic:
			if sub := p.prove(e.Callee); !sub.ok {
				fail(append([]*callgraph.Node{n}, sub.trail...), sub.reason)
				return pr
			}
		}
	}
	return pr
}

// --- per-body witness collection --------------------------------------------

// checker collects the allocation witnesses of one body (a declared
// function or a function literal; nested literals are separate nodes and
// excluded).
type checker struct {
	pass  *analysis.Pass
	start token.Pos
	sig   *types.Signature
	wits  []witness
}

func (c *checker) emit(pos token.Pos, desc, hint string) {
	c.wits = append(c.wits, witness{pos: pos, desc: desc, hint: hint})
}

func (c *checker) block(body *ast.BlockStmt) {
	// Composite literals whose address is taken escape to the heap even
	// when their type is a plain struct or array.
	addressed := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if cl, ok := ast.Unparen(ue.X).(*ast.CompositeLit); ok {
				addressed[cl] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.emit(n.Pos(), "go statement starts a goroutine", "; the spawn allocates")
			return true
		case *ast.CallExpr:
			return c.call(n)
		case *ast.CompositeLit:
			c.composite(n, addressed[n])
			return true
		case *ast.FuncLit:
			if capt := c.captures(n); capt != "" {
				c.emit(n.Pos(), "closure captures "+capt,
					": the closure allocates; hoist it to a cached field or method value")
			}
			return false // the literal's body is its own call-graph node
		case *ast.AssignStmt:
			c.assign(n)
			return true
		case *ast.ValueSpec:
			for i, v := range n.Values {
				var lt types.Type
				if n.Type != nil {
					lt = typeOf(c.pass, n.Type)
				} else if i < len(n.Names) {
					if obj := c.pass.TypesInfo.ObjectOf(n.Names[i]); obj != nil {
						lt = obj.Type()
					}
				}
				c.box(v, lt)
			}
			return true
		case *ast.ReturnStmt:
			c.returns(n)
			return true
		}
		return true
	})
}

// call handles one call expression; returning false prunes the walk below
// it (used for panic, whose arguments are exempt).
func (c *checker) call(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch obj := c.pass.TypesInfo.ObjectOf(id).(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				c.emit(call.Pos(), "make allocates", "")
				return true
			case "new":
				c.emit(call.Pos(), "new allocates", "")
				return true
			case "append":
				c.emit(call.Pos(), "append may grow its backing array",
					"; pre-size the slice or justify with an ignore directive")
				return true
			case "panic":
				return false // failure path: allocation is irrelevant
			}
		}
	}
	// A conversion to an interface type boxes its operand.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.box(call.Args[0], tv.Type)
		}
		return true
	}
	// Implicit boxing at the call boundary.
	sig, ok := typeOf(c.pass, call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.box(arg, pt)
		}
	}
	return true
}

func (c *checker) composite(cl *ast.CompositeLit, addressed bool) {
	t := typeOf(c.pass, cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.emit(cl.Pos(), "slice literal allocates", "")
	case *types.Map:
		c.emit(cl.Pos(), "map literal allocates", "")
	default:
		if addressed {
			c.emit(cl.Pos(), "composite literal escapes to the heap (address taken)", "")
		}
	}
}

func (c *checker) assign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		lt := typeOf(c.pass, lhs)
		if id, ok := lhs.(*ast.Ident); ok && s.Tok == token.DEFINE {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				lt = obj.Type()
			}
		}
		if lt != nil {
			c.box(s.Rhs[i], lt)
		}
	}
}

func (c *checker) returns(s *ast.ReturnStmt) {
	if c.sig == nil {
		return
	}
	res := c.sig.Results()
	if len(s.Results) != res.Len() {
		return
	}
	for i, e := range s.Results {
		c.box(e, res.At(i).Type())
	}
}

// box records e if assigning it to target boxes a non-pointer-shaped value
// into an interface.
func (c *checker) box(e ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return
	}
	et := typeOf(c.pass, e)
	if et == nil {
		return
	}
	if b, ok := et.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isIface := et.Underlying().(*types.Interface); isIface {
		return // interface-to-interface: no new allocation
	}
	if pointerShaped(et) {
		return
	}
	c.emit(e.Pos(), fmt.Sprintf("interface boxing of non-pointer value (%s) allocates", et), "")
}

// pointerShaped reports whether values of t fit an interface word without
// allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// captures names the first variable of the enclosing body a func literal
// closes over, or returns "" for capture-free literals (the compiler turns
// those into static values).
func (c *checker) captures(lit *ast.FuncLit) string {
	inner := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				inner[obj] = true
			}
		}
		return true
	})
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || inner[obj] || obj.IsField() {
			return true
		}
		if obj.Pos() >= c.start && obj.Pos() < lit.Pos() {
			found = obj.Name()
		}
		return true
	})
	return found
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return pass.TypesInfo.TypeOf(e)
}
