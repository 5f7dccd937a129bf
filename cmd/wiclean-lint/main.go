// Command wiclean-lint is the multichecker for WiClean's project
// analyzers. The set is whatever internal/analysis/checks registers —
// run with -list to print it; ARCHITECTURE.md §5 documents the invariant
// behind each one. It loads the named package patterns and analyzes each
// package's non-test files:
//
//	go run ./cmd/wiclean-lint ./...
//	wiclean-lint -set_exit_status=false ./internal/mining
//
// Findings print as file:line:col: message (analyzer). With
// -set_exit_status (the default), any finding makes the process exit
// nonzero, so CI fails the way revive's -set_exit_status does. Test files
// are exempt: the enforced invariants are production-code contracts
// (tests measure wall-clock time legitimately).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wiclean/internal/analysis/checks"
	"wiclean/internal/analysis/driver"
)

func main() {
	progname := filepath.Base(os.Args[0])
	flags := flag.NewFlagSet(progname, flag.ExitOnError)
	setExit := flags.Bool("set_exit_status", true, "exit nonzero when any finding is reported")
	list := flags.Bool("list", false, "print the registered analyzers and exit")
	flags.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [packages]\n\nAnalyzers:\n", progname)
		for _, a := range checks.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flags.PrintDefaults()
	}
	_ = flags.Parse(os.Args[1:]) // ExitOnError
	if *list {
		for _, a := range checks.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := driver.Load(cwd, flags.Args()...)
	if err != nil {
		fatal(err)
	}
	diags, err := driver.Run(checks.All(), pkgs)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(driver.Format(pkgs[0].Fset, cwd, d))
	}
	if len(diags) > 0 && *setExit {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wiclean-lint:", err)
	os.Exit(2)
}
