// Package analysis is the foundation of m3vlint, the project's static
// analyzer suite. It mirrors the core API shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — on the
// standard library alone, because this repository builds offline and
// vendors no external modules. Migrating an analyzer to the upstream
// framework is a mechanical import swap: the field and method names below
// are deliberately identical to their x/tools counterparts.
//
// The analyzers enforce the simulator's three machine-checkable invariants
// (see DESIGN.md §6):
//
//   - detmap: no order-sensitive iteration over maps in deterministic
//     packages (bit-identical runs);
//   - walltime: no wall-clock or global-rand reads inside simulation
//     packages (the sim clock and seeded *rand.Rand are the only time and
//     randomness sources);
//   - noalloc: functions annotated //m3v:noalloc stay free of allocating
//     constructs (static complement to the runtime AllocsPerRun guards);
//   - metricname: registry metric names are literal, follow the
//     component.noun convention, and are unique across the module.
//
// A finding is suppressed by a directive on the offending line or the line
// directly above it:
//
//	//m3vlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a directive without one is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static analysis and its Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the one-paragraph description printed by `m3vlint -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
	// RunModule, if set, runs once after Run has been applied to every
	// package of the driver invocation. It is the hook for interprocedural
	// analyses (transitive noalloc, simblock reachability): per-package Run
	// calls accumulate facts into the analyzer's Store, RunModule resolves
	// them over the whole module. Diagnostics it reports are attributed to
	// the file containing their position and pass through the same ignore
	// directives as per-package findings.
	RunModule func(*ModulePass) (interface{}, error)
}

// A Pass provides one analyzer with the parsed, type-checked view of a
// single package and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Store is shared by all packages of one driver run (one map per
	// analyzer), giving module-wide analyses such as metricname's
	// uniqueness check a place to accumulate state. Packages are processed
	// in sorted import-path order, so its contents are deterministic.
	Store map[string]interface{}
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A ModulePass provides an analyzer's RunModule with the whole-module view:
// every unit of the driver invocation (all sharing one FileSet) plus the
// Store the per-package Run calls populated.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit
	Store    map[string]interface{}
	// Report delivers one diagnostic; the driver attributes it to the unit
	// containing its position for suppression filtering.
	Report func(Diagnostic)
	// Suppressed consults the ignore directives covering pos for this
	// analyzer's name, marking any match as used. Interprocedural analyses
	// call it for *internal* decisions — e.g. transitive noalloc treats a
	// directive-suppressed allocation witness inside an unannotated helper
	// as justified — so such directives count as live in the
	// stale-suppression audit even though no diagnostic was reported at
	// them. Reported diagnostics are filtered by the driver; callers need
	// Suppressed only for facts that never become diagnostics.
	Suppressed func(pos token.Pos) bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// --- deterministic-package policy -------------------------------------------

// DeterministicPkgs lists the packages whose behaviour must be bit-identical
// across runs: every package whose code runs inside a simulation (the
// discrete-event substrate, the hardware and OS model, the M³x baseline,
// the activity runtime and the workloads on it) and the experiment drivers
// whose tables the serial/parallel equivalence gate compares byte for byte.
var DeterministicPkgs = []string{
	"m3v/internal/sim",
	"m3v/internal/tilemux",
	"m3v/internal/kernel",
	"m3v/internal/dtu",
	"m3v/internal/noc",
	"m3v/internal/m3x",
	"m3v/internal/bench",
	"m3v/internal/activity",
	"m3v/internal/core",
	"m3v/internal/cap",
	"m3v/internal/proto",
	"m3v/internal/mem",
	"m3v/internal/nic",
	"m3v/internal/m3fs",
	"m3v/internal/kvs",
	"m3v/internal/netstack",
	"m3v/internal/vm",
	"m3v/internal/rpcpair",
	"m3v/internal/fault",
	"m3v/internal/linuxos",
	"m3v/internal/ycsb",
	"m3v/internal/traces",
	"m3v/internal/flac",
	"m3v/internal/audio",
}

// IsDeterministic reports whether the import path names a package with the
// bit-identical-runs obligation.
func IsDeterministic(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// IsCmd reports whether the import path lies under a cmd/ tree. Command
// binaries run outside simulated time (bench timestamps, wall-clock
// speedup measurement) and are exempt from walltime.
func IsCmd(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file at pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// --- ignore directives ------------------------------------------------------

const (
	// IgnorePrefix introduces a suppression directive.
	IgnorePrefix = "m3vlint:ignore"
	// NoAllocMarker annotates a function whose body the noalloc analyzer
	// checks.
	NoAllocMarker = "m3v:noalloc"
	// SimCtxMarker annotates a simulation-context root: a function from
	// which the simblock analyzer's reachability starts (engine dispatch,
	// process block/wake, DTU/NoC handlers).
	SimCtxMarker = "m3v:simctx"
)

// An ignoreDirective is one parsed //m3vlint:ignore comment.
type ignoreDirective struct {
	pos    token.Pos
	file   string
	line   int
	names  []string
	reason string
}

// parseIgnores extracts every ignore directive of a file.
func parseIgnores(fset *token.FileSet, file *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, IgnorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, IgnorePrefix)
			fields := strings.Fields(rest)
			at := fset.Position(c.Pos())
			d := ignoreDirective{pos: c.Pos(), file: at.Filename, line: at.Line}
			if len(fields) > 0 {
				d.names = strings.Split(fields[0], ",")
				d.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			}
			out = append(out, d)
		}
	}
	return out
}

func (d *ignoreDirective) covers(name string, at token.Position) bool {
	if at.Filename != d.file || at.Line != d.line && at.Line != d.line+1 {
		return false
	}
	for _, n := range d.names {
		if n == name {
			return true
		}
	}
	return false
}

// Directives is the parsed, well-formed ignore-directive set of one unit's
// files, with per-directive use tracking for the stale-suppression audit.
// Reasonless and malformed directives are excluded (CheckDirectives reports
// them; they suppress nothing).
type Directives struct {
	fset *token.FileSet
	dirs []ignoreDirective
	used []bool
}

// ParseDirectives collects every well-formed ignore directive of the files.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset}
	for _, f := range files {
		for _, dir := range parseIgnores(fset, f) {
			if dir.reason != "" && len(dir.names) > 0 {
				d.dirs = append(d.dirs, dir)
			}
		}
	}
	d.used = make([]bool, len(d.dirs))
	return d
}

// Suppressed reports whether a directive for the named analyzer covers pos,
// marking the first match as used.
func (d *Directives) Suppressed(name string, pos token.Pos) bool {
	at := d.fset.Position(pos)
	for i := range d.dirs {
		if d.dirs[i].covers(name, at) {
			d.used[i] = true
			return true
		}
	}
	return false
}

// Filter drops diagnostics suppressed by a directive for the named
// analyzer, marking the consumed directives as used.
func (d *Directives) Filter(name string, diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, dg := range diags {
		if !d.Suppressed(name, dg.Pos) {
			kept = append(kept, dg)
		}
	}
	return kept
}

// Unused reports one diagnostic per directive that suppressed nothing over
// the whole run: a stale suppression either outlived the finding it
// justified or spells an analyzer name that reports nothing there, and
// silently masks the next regression on that line. Reasonless directives
// are not reported here — CheckDirectives already flags them.
func (d *Directives) Unused() []Diagnostic {
	var out []Diagnostic
	for i := range d.dirs {
		if !d.used[i] {
			out = append(out, Diagnostic{Pos: d.dirs[i].pos, Message: fmt.Sprintf(
				"stale suppression: //m3vlint:ignore %s directive suppressed no findings; delete it",
				strings.Join(d.dirs[i].names, ","))})
		}
	}
	return out
}

// Filter drops diagnostics suppressed by a well-formed ignore directive for
// the named analyzer. A directive suppresses findings on its own line and on
// the line immediately below it. Directives without a reason suppress
// nothing (CheckDirectives reports them).
func Filter(fset *token.FileSet, files []*ast.File, name string, diags []Diagnostic) []Diagnostic {
	return ParseDirectives(fset, files).Filter(name, diags)
}

// CheckDirectives validates the grammar of every ignore directive in the
// files: `//m3vlint:ignore <analyzer>[,<analyzer>...] <reason>` with a
// non-empty reason. Violations come back as diagnostics attributed to the
// driver itself.
func CheckDirectives(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, d := range parseIgnores(fset, f) {
			switch {
			case len(d.names) == 0:
				out = append(out, Diagnostic{Pos: d.pos,
					Message: "malformed ignore directive: want //m3vlint:ignore <analyzer> <reason>"})
			case d.reason == "":
				out = append(out, Diagnostic{Pos: d.pos, Message: fmt.Sprintf(
					"ignore directive for %s is missing its reason", strings.Join(d.names, ","))})
			}
		}
	}
	return out
}

// --- driver -----------------------------------------------------------------

// A Finding is one post-suppression diagnostic with its provenance.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// A Unit is one loadable package as the driver consumes it (the load
// package produces these; the indirection keeps analysis dependency-free).
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies every analyzer to every unit, in sorted import-path order,
// then runs each analyzer's module pass (if any) over the whole unit set,
// applies ignore directives, validates directive grammar, audits for stale
// suppressions, and returns the surviving findings sorted by position.
func Run(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	sorted := append([]*Unit(nil), units...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	stores := make(map[*Analyzer]map[string]interface{}, len(analyzers))
	for _, a := range analyzers {
		stores[a] = map[string]interface{}{}
	}
	// Directives are parsed once per unit and shared by every analyzer (and
	// the module passes), so the audit below sees each directive's use
	// across the whole run. byFile maps a diagnostic's filename back to the
	// unit that owns it, for attributing module-pass findings.
	dirs := make(map[*Unit]*Directives, len(sorted))
	byFile := map[string]*Unit{}
	for _, u := range sorted {
		dirs[u] = ParseDirectives(u.Fset, u.Files)
		for _, f := range u.Files {
			byFile[u.Fset.Position(f.Pos()).Filename] = u
		}
	}
	var findings []Finding
	for _, u := range sorted {
		for _, dg := range CheckDirectives(u.Fset, u.Files) {
			findings = append(findings, Finding{
				Analyzer: "m3vlint", Pos: u.Fset.Position(dg.Pos), Message: dg.Message,
			})
		}
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
				Store:     stores[a],
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, u.Path, err)
			}
			for _, dg := range dirs[u].Filter(a.Name, diags) {
				findings = append(findings, Finding{
					Analyzer: a.Name, Pos: u.Fset.Position(dg.Pos), Message: dg.Message,
				})
			}
		}
	}
	if len(sorted) > 0 {
		fset := sorted[0].Fset
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			var diags []Diagnostic
			mp := &ModulePass{
				Analyzer: a,
				Fset:     fset,
				Units:    sorted,
				Store:    stores[a],
				Report:   func(d Diagnostic) { diags = append(diags, d) },
				Suppressed: func(pos token.Pos) bool {
					if u := byFile[fset.Position(pos).Filename]; u != nil {
						return dirs[u].Suppressed(a.Name, pos)
					}
					return false
				},
			}
			if _, err := a.RunModule(mp); err != nil {
				return nil, fmt.Errorf("%s: module pass: %v", a.Name, err)
			}
			for _, dg := range diags {
				u := byFile[fset.Position(dg.Pos).Filename]
				if u != nil && dirs[u].Suppressed(a.Name, dg.Pos) {
					continue
				}
				findings = append(findings, Finding{
					Analyzer: a.Name, Pos: fset.Position(dg.Pos), Message: dg.Message,
				})
			}
		}
	}
	// Stale-suppression audit: every directive must have earned its keep in
	// this run.
	for _, u := range sorted {
		for _, dg := range dirs[u].Unused() {
			findings = append(findings, Finding{
				Analyzer: "m3vlint", Pos: u.Fset.Position(dg.Pos), Message: dg.Message,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// HasMarker reports whether the function declaration carries the given
// //-style annotation (NoAllocMarker, SimCtxMarker) in its doc comment
// group.
func HasMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimPrefix(c.Text, "//") == marker {
			return true
		}
	}
	return false
}

// HasNoAllocMarker reports whether the function declaration carries the
// //m3v:noalloc annotation in its doc comment group.
func HasNoAllocMarker(decl *ast.FuncDecl) bool { return HasMarker(decl, NoAllocMarker) }
