// Command videolint runs the project's static-analysis suite
// (lockcheck and ctxcheck — see internal/lint).
//
// Standalone:
//
//	videolint [-json] [-all] [packages]
//
// defaults to ./... and exits 1 when any unsuppressed diagnostic
// remains. -all also prints suppressed findings with their reasons.
//
// As a vet tool:
//
//	go vet -vettool=$(which videolint) ./...
//
// videolint speaks enough of the cmd/vet unitchecker protocol (-V=full
// version handshake, single vet.cfg argument) to run under the go
// toolchain; in that mode diagnostics go to stderr and a package with
// findings exits 2, matching vet's conventions.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"videodb/internal/lint"
)

func main() {
	// go vet probes the tool with -V=full before use.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		exe, _ := os.Executable()
		h := sha256.New()
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
		fmt.Printf("%s version devel buildID=%x\n", filepath.Base(exe), h.Sum(nil)[:16])
		return
	}
	// go vet asks which analyzer flags the tool supports; videolint
	// exposes none through vet (use the standalone mode for -json/-all).
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Under `go vet`, the sole argument is a *.cfg file describing one
	// package.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(runVetCfg(os.Args[1]))
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	showAll := flag.Bool("all", false, "also print suppressed diagnostics with their reasons")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: videolint [-json] [-all] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "videolint:", err)
		os.Exit(1)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "videolint:", err)
		os.Exit(1)
	}
	unsuppressed := lint.Unsuppressed(diags)

	if *jsonOut {
		out := struct {
			Diagnostics  []lint.Diagnostic `json:"diagnostics"`
			Suppressed   int               `json:"suppressed"`
			Unsuppressed int               `json:"unsuppressed"`
		}{diags, len(diags) - len(unsuppressed), len(unsuppressed)}
		if out.Diagnostics == nil {
			out.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		for _, d := range diags {
			if d.Suppressed && !*showAll {
				continue
			}
			fmt.Println(d)
		}
		if len(unsuppressed) > 0 {
			fmt.Fprintf(os.Stderr, "videolint: %d unsuppressed diagnostic(s)\n", len(unsuppressed))
		}
	}
	if len(unsuppressed) > 0 {
		os.Exit(1)
	}
}

// vetConfig is the subset of cmd/vet's unitchecker config videolint
// reads.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg analyzes one package as directed by a vet.cfg and returns
// the process exit code (vet expects 2 when findings are reported).
func runVetCfg(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "videolint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "videolint: parsing vet config:", err)
		return 1
	}
	// videolint keeps no cross-package facts, but vet requires the
	// output file to exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "videolint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	pkg, err := lint.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, func(ipath string) string {
		if real, ok := cfg.ImportMap[ipath]; ok {
			ipath = real
		}
		return cfg.PackageFile[ipath]
	})
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "videolint:", err)
		return 1
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "videolint:", err)
		return 1
	}
	unsuppressed := lint.Unsuppressed(diags)
	for _, d := range unsuppressed {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(unsuppressed) > 0 {
		return 2
	}
	return 0
}
