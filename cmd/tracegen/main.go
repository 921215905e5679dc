// tracegen prints the synthesized system-call traces used by the Figure 9
// benchmark (find and SQLite), in a readable text form.
//
//	tracegen -trace find
//	tracegen -trace sqlite -phase setup
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"m3v/internal/traces"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool and returns its exit code: 2 for a usage error.
// Split from main for CLI tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("trace", "find", "trace to print: find or sqlite")
	phase := fs.String("phase", "run", "phase to print: setup or run")
	summary := fs.Bool("summary", false, "print only the trace summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	var tr *traces.Trace
	switch *name {
	case "find":
		tr = traces.Find()
	case "sqlite":
		tr = traces.SQLite()
	default:
		return usage("unknown trace %q (want find or sqlite)", *name)
	}
	ops := tr.Run
	switch *phase {
	case "run":
	case "setup":
		ops = tr.Setup
	default:
		return usage("unknown phase %q (want setup or run)", *phase)
	}
	sys, comp := tr.Stats()
	fmt.Fprintf(stdout, "# trace %s: %d setup ops, %d run ops (%d syscalls, %d compute cycles)\n",
		tr.Name, len(tr.Setup), len(tr.Run), sys, comp)
	if *summary {
		return 0
	}
	names := []string{"open", "create", "read", "write", "close", "stat", "readdir", "unlink", "mkdir", "compute"}
	for _, op := range ops {
		switch {
		case op.Kind == traces.OpCompute:
			fmt.Fprintf(stdout, "compute %d\n", op.Cycles)
		case op.Size > 0:
			fmt.Fprintf(stdout, "%-8s %s %d\n", names[op.Kind], op.Path, op.Size)
		default:
			fmt.Fprintf(stdout, "%-8s %s\n", names[op.Kind], op.Path)
		}
	}
	return 0
}
