// Command whisperlint runs Whisper's project-specific static-analysis
// suite (internal/analysis) over Go packages. It has two modes:
//
// Standalone, for humans and CI:
//
//	go run ./cmd/whisperlint ./...
//
// loads packages with `go list` and prints one line per violation,
// exiting 1 if any are found.
//
// As a vet tool, so the suite slots into the standard toolchain:
//
//	go vet -vettool=$(which whisperlint) ./...
//
// In that mode cmd/go invokes whisperlint once per package with a
// vet.cfg describing the files; the protocol (the -V=full handshake,
// the VetxOutput side file, diagnostics on stderr with exit 2) is the
// same one golang.org/x/tools' unitchecker speaks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"whisper/internal/analysis"
)

// version is the string reported to cmd/go's -V=full handshake; cmd/go
// uses the whole line as the tool's cache key, so bump it when analyzer
// behaviour changes to invalidate stale vet results.
const version = "2.1.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("whisperlint", flag.ExitOnError)
	fs.Usage = usage
	vFlag := fs.String("V", "", "print version and exit (cmd/go handshake)")
	flagsFlag := fs.Bool("flags", false, "describe flags in JSON (cmd/go handshake)")
	listFlag := fs.Bool("list", false, "list the analyzers in the suite and exit")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as JSON (standalone mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *vFlag != "" {
		// cmd/go probes `tool -V=full` and requires "<name> version <ver>".
		fmt.Printf("whisperlint version %s\n", version)
		return 0
	}
	if *flagsFlag {
		// cmd/go probes `tool -flags` for the tool's flag set; this suite
		// exposes none of its flags through go vet.
		fmt.Println("[]")
		return 0
	}
	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetTool(rest[0])
	}
	return runStandalone(rest, *jsonFlag)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: whisperlint [packages]

Runs the Whisper analyzer suite over the named packages (./... by
default). Also usable as go vet -vettool=$(which whisperlint) ./...

Flags:
  -list   list the analyzers and exit
  -json   emit diagnostics as JSON
`)
}

// listPackage is the subset of `go list -json` output the standalone
// loader needs.
type listPackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

func runStandalone(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "whisperlint: go list: %v\n", err)
		return 2
	}

	// All packages load into one Project so the interprocedural
	// analyzers (lockorder, allocbudget, errident) see cross-package
	// call edges; go vet mode degrades to one-package
	// projects because cmd/go invokes the tool per package.
	var pkgs []*analysis.Package
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			fmt.Fprintf(os.Stderr, "whisperlint: decoding go list output: %v\n", err)
			return 2
		}
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "whisperlint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 2
		}
		var files []string
		for _, group := range [][]string{p.GoFiles, p.CgoFiles, p.TestGoFiles, p.XTestGoFiles} {
			for _, f := range group {
				files = append(files, filepath.Join(p.Dir, f))
			}
		}
		if len(files) == 0 {
			continue
		}
		pkg, err := analysis.LoadFiles(p.ImportPath, files)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whisperlint: %s: %v\n", p.ImportPath, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	var diags []analysis.Diagnostic
	if len(pkgs) > 0 {
		diags = analysis.RunProject(analysis.NewProject(pkgs...), analysis.All())
	}

	if asJSON {
		if diags == nil {
			diags = []analysis.Diagnostic{} // encode a clean run as [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "whisperlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "whisperlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig mirrors the JSON cmd/go writes for vet tools; only the
// fields this suite consumes are declared.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// runVetTool speaks the cmd/go vet-tool protocol: read the config,
// write the (empty — this suite exports no facts) VetxOutput so cmd/go
// can cache the run, and report diagnostics for the target package on
// stderr with exit status 2.
func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whisperlint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if uerr := json.Unmarshal(data, &cfg); uerr != nil {
		fmt.Fprintf(os.Stderr, "whisperlint: parsing vet config %s: %v\n", cfgPath, uerr)
		return 1
	}
	if cfg.VetxOutput != "" {
		if werr := os.WriteFile(cfg.VetxOutput, []byte("whisperlint\n"), 0o666); werr != nil {
			fmt.Fprintf(os.Stderr, "whisperlint: writing %s: %v\n", cfg.VetxOutput, werr)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency package analyzed only for facts; no diagnostics.
		return 0
	}

	// Test variants arrive as "path [path.test]"; the scoped analyzers
	// key on the plain import path.
	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}

	var goFiles []string
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, ".go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return 0
	}
	pkg, err := analysis.LoadFiles(importPath, goFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whisperlint: %s: %v\n", importPath, err)
		return 1
	}
	diags := analysis.Run(pkg, analysis.All())
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
