package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestFilterSuppressesSameAndNextLine(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	//m3vlint:ignore detmap fresh map keyed by range key
	_ = 1 // line 5, covered by the directive above
	_ = 2 // line 6, not covered
}
`)
	mk := func(line int) Diagnostic {
		var pos token.Pos
		fset.Iterate(func(f *token.File) bool {
			pos = f.LineStart(line)
			return false
		})
		return Diagnostic{Pos: pos, Message: "x"}
	}
	kept := Filter(fset, files, "detmap", []Diagnostic{mk(4), mk(5), mk(6)})
	if len(kept) != 1 || fset.Position(kept[0].Pos).Line != 6 {
		t.Fatalf("want only the line-6 diagnostic kept, got %d diagnostics", len(kept))
	}
	// A different analyzer's findings pass through untouched.
	if kept := Filter(fset, files, "walltime", []Diagnostic{mk(5)}); len(kept) != 1 {
		t.Fatalf("directive for detmap must not suppress walltime findings")
	}
}

// TestFilterMatchesDirectiveFile pins that a directive covers lines of its
// own file only: a finding on the same line number of another file of the
// package stays, and the directive that covers nothing there is stale.
func TestFilterMatchesDirectiveFile(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, src := range []struct{ name, body string }{
		{"a.go", "package p\n\n//m3vlint:ignore noalloc audited growth\nvar a = 1\n"},
		{"b.go", "package p\n\n\nvar b = 2\n"},
	} {
		f, err := parser.ParseFile(fset, src.name, src.body, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	line4 := func(f *ast.File) Diagnostic {
		return Diagnostic{Pos: fset.File(f.Pos()).LineStart(4), Message: "x"}
	}
	d := ParseDirectives(fset, files)
	if kept := d.Filter("noalloc", []Diagnostic{line4(files[1])}); len(kept) != 1 {
		t.Fatal("a.go's directive suppressed a finding in b.go")
	}
	if len(d.Unused()) != 1 {
		t.Fatal("a directive matched only by another file's finding must stay stale")
	}
	if kept := d.Filter("noalloc", []Diagnostic{line4(files[0])}); len(kept) != 0 {
		t.Fatal("a.go's directive must suppress the finding below it")
	}
}

func TestCheckDirectivesRequiresReason(t *testing.T) {
	fset, files := parse(t, `package p

//m3vlint:ignore detmap
var a int

//m3vlint:ignore
var b int

//m3vlint:ignore detmap,noalloc amortized growth of the reusable buffer
var c int
`)
	diags := CheckDirectives(fset, files)
	if len(diags) != 2 {
		t.Fatalf("want 2 malformed-directive diagnostics, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "missing its reason") {
		t.Errorf("first diagnostic should name the missing reason: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "malformed") {
		t.Errorf("second diagnostic should report the malformed directive: %s", diags[1].Message)
	}
}

func TestReasonlessDirectiveSuppressesNothing(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	//m3vlint:ignore detmap
	_ = 1
}
`)
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(5)
		return false
	})
	kept := Filter(fset, files, "detmap", []Diagnostic{{Pos: pos, Message: "x"}})
	if len(kept) != 1 {
		t.Fatalf("a directive without a reason must not suppress findings")
	}
}

func TestUnusedDirectivesReported(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	//m3vlint:ignore detmap this one suppresses a finding
	_ = 1
	//m3vlint:ignore noalloc this one suppresses nothing and is stale
	_ = 2
	//m3vlint:ignore walltime
	_ = 3
}
`)
	d := ParseDirectives(fset, files)
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(5)
		return false
	})
	if kept := d.Filter("detmap", []Diagnostic{{Pos: pos, Message: "x"}}); len(kept) != 0 {
		t.Fatalf("detmap directive should suppress the line-5 finding")
	}
	unused := d.Unused()
	if len(unused) != 1 {
		t.Fatalf("want exactly the stale noalloc directive reported, got %d: %v", len(unused), unused)
	}
	if got := fset.Position(unused[0].Pos).Line; got != 6 {
		t.Errorf("stale directive reported at line %d, want 6", got)
	}
	if !strings.Contains(unused[0].Message, "stale suppression") ||
		!strings.Contains(unused[0].Message, "noalloc") {
		t.Errorf("message should name the stale analyzer: %s", unused[0].Message)
	}
	// The reasonless walltime directive is CheckDirectives' business, not
	// the audit's.
	if strings.Contains(unused[0].Message, "walltime") {
		t.Errorf("reasonless directive must not appear in the audit: %s", unused[0].Message)
	}
}

func TestSuppressedMarksUse(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	//m3vlint:ignore noalloc justified helper growth
	_ = 1
}
`)
	d := ParseDirectives(fset, files)
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(5)
		return false
	})
	if d.Suppressed("detmap", pos) {
		t.Fatal("directive must only cover its named analyzer")
	}
	if len(d.Unused()) != 1 {
		t.Fatal("unconsumed directive should be reported as stale")
	}
	if !d.Suppressed("noalloc", pos) {
		t.Fatal("directive should cover a noalloc query on the next line")
	}
	if len(d.Unused()) != 0 {
		t.Fatal("a Suppressed hit must mark the directive used")
	}
}

func TestPolicyHelpers(t *testing.T) {
	for _, p := range DeterministicPkgs {
		if !IsDeterministic(p) {
			t.Errorf("IsDeterministic(%q) = false", p)
		}
	}
	for _, p := range []string{"m3v/internal/trace", "m3v", "m3v/cmd/m3vbench"} {
		if IsDeterministic(p) {
			t.Errorf("IsDeterministic(%q) = true", p)
		}
	}
	if !IsCmd("m3v/cmd/m3vbench") || IsCmd("m3v/internal/sim") || IsCmd("m3v") {
		t.Error("IsCmd misclassifies")
	}
}
