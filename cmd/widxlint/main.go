// Command widxlint machine-checks the simulator's load-bearing invariants:
// byte-identical output at any -parallel (no map-iteration order in
// anything emitted, no wall-clock/ambient-randomness/environment reads in
// the simulation core), and no internal/ declaration that only tests
// reference (deadcode, one pass over the whole module).
//
// Usage (CI's lint job runs the first form):
//
//	go run ./cmd/widxlint ./...
//	go run ./cmd/widxlint -tests=false ./...          # skip _test.go variants
//	go run ./cmd/widxlint -detmap ./internal/exp/...  # one analyzer only
//	go run ./cmd/widxlint -deadcode ./...             # dead-code check only
//
// Exit status is nonzero iff any diagnostic was reported. Suppress a
// false positive with `//widxlint:ignore <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"widx/internal/lint"
)

func main() {
	analyzers := lint.Analyzers()
	fs := flag.NewFlagSet("widxlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: widxlint [flags] packages...\n\nanalyzers:\n")
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, doc)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	tests := fs.Bool("tests", true, "also analyze _test.go files (test package variants)")
	enabled := lint.RegisterFlags(fs, analyzers)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		os.Exit(1)
	}

	findings, err := lint.Run(".", *tests, lint.Enabled(analyzers, enabled), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "widxlint:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "widxlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
