// Package analysistest runs one analyzer over GOPATH-style fixture trees
// and checks its diagnostics against `// want` comments, mirroring the
// workflow of golang.org/x/tools/go/analysis/analysistest on the standard
// library alone.
//
// Fixtures live under <testdata>/src/<importpath>/. Every .go file in a
// fixture directory (including _test.go files, so exemptions for test
// files can themselves be tested) is one package. Fixture imports resolve
// first against <testdata>/src, then against compiled standard-library
// export data, so a fixture can stand in for a real module package — e.g.
// testdata/src/m3v/internal/trace supplies the registry type that
// metricname keys on.
//
// Expectations are comments of the form
//
//	code() // want "regexp" `another regexp`
//
// Each quoted pattern must match the message of exactly one diagnostic
// reported on that line; unexpected and missing diagnostics fail the test.
// Ignore directives are applied before matching, so suppression behaviour
// is testable, and malformed directives surface as "m3vlint" diagnostics.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"m3v/internal/analysis"
	"m3v/internal/analysis/load"
)

// Run applies the analyzer to each fixture package (named by import path
// under <testdata>/src) through the m3vlint driver, analysis.Run, and
// verifies the findings against the fixtures' want comments. The driver
// does everything a real run does: the per-package passes share the
// analyzer's Store (so module-wide properties such as metricname
// uniqueness can be exercised across fixture packages), the module pass
// runs over all loaded fixtures, ignore directives filter both, malformed
// directives surface as "m3vlint" findings, and stale directives — ones
// that suppressed nothing across the whole run — are reported too, so
// fixtures can pin the audit.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	ld, err := newLoader(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var units []*analysis.Unit
	var files []*ast.File
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		units = append(units, &analysis.Unit{
			Path: path, Fset: ld.fset, Files: pkg.files, Pkg: pkg.types, Info: pkg.info,
		})
		files = append(files, pkg.files...)
	}
	findings, err := analysis.Run(units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	check(t, ld.fset, files, findings)
}

// check matches findings against want expectations by file and line.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Finding) {
	t.Helper()
	type expectation struct {
		file string
		line int
		re   *regexp.Regexp
		raw  string
		met  bool
	}
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(text[idx+len("want "):]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: raw,
					})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

// splitPatterns extracts the quoted or backquoted patterns of a want
// comment.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		raw := s[:end+2]
		if quote == '"' {
			if u, err := strconv.Unquote(raw); err == nil {
				out = append(out, u)
			}
		} else {
			out = append(out, raw[1:len(raw)-1])
		}
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// --- fixture loading --------------------------------------------------------

type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	root  string // <testdata>/src
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*fixturePkg
}

func newLoader(testdata string) (*loader, error) {
	root := filepath.Join(testdata, "src")
	stdPaths, err := externalImports(root)
	if err != nil {
		return nil, err
	}
	exports, err := load.StdExports(testdata, stdPaths)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	return &loader{root: root, fset: fset, std: std, cache: map[string]*fixturePkg{}}, nil
}

// externalImports scans every fixture file and collects the imports that do
// not resolve inside the fixture tree — i.e. the standard-library closure
// the fixtures need.
func externalImports(root string) ([]string, error) {
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parse %s: %v", p, err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err == nil && fi.IsDir() {
				continue // fixture-local package
			}
			seen[path] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Import resolves an import from within a fixture package: fixture-local
// packages are type-checked from source, everything else comes from
// standard-library export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil && fi.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package.
func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no go files", path)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: typecheck: %v", path, err)
	}
	pkg := &fixturePkg{files: files, types: tpkg, info: info}
	l.cache[path] = pkg
	return pkg, nil
}
