// Package analysis is Whisper's static-analysis suite: a small,
// dependency-free framework in the style of golang.org/x/tools'
// go/analysis, plus the project-specific analyzers that encode the
// house rules the generic linters cannot see (locks held across
// channel sends, lock order, context plumbing, span lifecycle,
// deterministic clocks and RNGs, sentinel identity, hot-path
// allocations).
//
// The framework is purely syntactic: analyzers work on parsed ASTs
// with per-file import resolution and never need type information, so
// the suite runs with only the standard library. cmd/whisperlint is
// the multichecker driver; it runs standalone (`go run
// ./cmd/whisperlint ./...`) and as a `go vet -vettool`.
//
// Violations that are intentional are suppressed in place with a
//
//	//lint:allow <rule>[,<rule>...] <reason>
//
// directive, either trailing the offending line or alone on the line
// above it. The rule must be one of All() and the reason is mandatory;
// a directive that breaks either is itself reported (rule
// "directive").
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named rule over a package's syntax.
type Analyzer struct {
	// Name identifies the rule in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is the one-paragraph description shown by `whisperlint -doc`.
	Doc string
	// Run inspects one package and reports violations via pass.Reportf.
	// Interprocedural analyzers reach the call graph and per-function
	// summaries through pass.Proj. Nil for project-level analyzers.
	Run func(pass *Pass)
	// ProjectRun, when set, runs once per project instead of once per
	// package — for rules whose facts only exist globally (the
	// lock-acquisition-order graph). Reports via pass.ReportPosf.
	ProjectRun func(pass *Pass)
}

// Pass carries one package (or, for ProjectRun, one project) through
// one analyzer.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package (nil in a
	// ProjectRun pass; use ReportPosf there).
	Fset *token.FileSet
	// Files are the package's parsed files (including _test.go files;
	// analyzers that exempt tests check the filename suffix).
	Files []*ast.File
	// ImportPath is the package's import path; analyzers scoped to
	// specific layers (ctxflow, detrand) match against it.
	ImportPath string
	// Pkg is the package under analysis (nil in a ProjectRun pass).
	Pkg *Package
	// Proj is the project the package was loaded into. Always non-nil:
	// single-package runs (go vet -vettool invokes the driver once per
	// package) get a one-package project, so the interprocedural
	// analyzers degrade gracefully to package-local call graphs.
	Proj *Project

	diags []Diagnostic
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a violation at an already-resolved position (the
// summaries store resolved positions so facts can cross packages).
func (p *Pass) ReportPosf(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule is the reporting analyzer's name.
	Rule string
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Package is one loaded package ready for analysis.
type Package struct {
	// Fset maps positions for Files.
	Fset *token.FileSet
	// ImportPath is the package's import path.
	ImportPath string
	// Files are the parsed files, comments included.
	Files []*ast.File
}

// LoadFiles parses the given Go files into a Package. Parsing keeps
// comments (the suppression directives live there) and tolerates
// nothing: a syntax error fails the load, exactly like go vet.
func LoadFiles(importPath string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	pkg := &Package{Fset: fset, ImportPath: importPath}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// LoadDir parses every .go file directly inside dir (no recursion)
// into a Package under the given import path. Used by the golden-file
// tests; the driver loads via `go list` instead.
func LoadDir(importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return LoadFiles(importPath, files)
}

// Run executes the analyzers over one package loaded as its own
// project, applies //lint:allow suppressions, and returns the
// surviving diagnostics ordered by position. Malformed directives (no
// reason, or a rule not in All()) are reported under the pseudo-rule
// "directive".
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProject(NewProject(pkg), analyzers)
}

// RunProject executes the analyzers over every package of the project:
// per-package rules see each package with the project attached through
// Pass.Proj; project-level rules (ProjectRun) run exactly once.
// Suppression directives from every package apply, and diagnostics
// come back ordered by position.
func RunProject(proj *Project, analyzers []*Analyzer) []Diagnostic {
	sup := make(suppressions)
	var diags []Diagnostic
	for _, pkg := range proj.Packages {
		pkgSup, bad := collectDirectives(pkg)
		for file, lines := range pkgSup {
			sup[file] = lines
		}
		diags = append(diags, bad...)
	}
	report := func(pass *Pass) {
		for _, d := range pass.diags {
			if !sup.allows(d) {
				diags = append(diags, d)
			}
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range proj.Packages {
				pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, ImportPath: pkg.ImportPath, Pkg: pkg, Proj: proj}
				a.Run(pass)
				report(pass)
			}
		}
		if a.ProjectRun != nil {
			pass := &Pass{Analyzer: a, Proj: proj}
			a.ProjectRun(pass)
			report(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:allow"

// suppressions maps file → line → set of allowed rule names.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) allows(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	return lines[d.Pos.Line][d.Rule]
}

// collectDirectives indexes every //lint:allow directive in the
// package. A trailing directive suppresses its own line; a directive
// alone on a line suppresses the next line. Directives without a
// reason, or naming a rule that is not registered (a stale suppression
// of a retired analyzer, or a typo), are reported.
func collectDirectives(pkg *Package) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	sources := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Rule:    "directive",
						Message: "malformed //lint:allow directive: want \"//lint:allow <rule>[,<rule>...] <reason>\"",
					})
					continue
				}
				line := pos.Line
				if startsLine(sources, pos) {
					line++ // directive on its own line covers the next one
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					sup[pos.Filename] = byLine
				}
				rules := byLine[line]
				if rules == nil {
					rules = make(map[string]bool)
					byLine[line] = rules
				}
				for _, r := range strings.Split(fields[0], ",") {
					if ByName(r) == nil {
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Rule:    "directive",
							Message: fmt.Sprintf("//lint:allow names unknown rule %q; remove the stale suppression", r),
						})
					}
					rules[r] = true
				}
			}
		}
	}
	return sup, bad
}

// startsLine reports whether the comment at pos is the first
// non-whitespace token on its source line (then the directive covers
// the following line instead of its own).
func startsLine(sources map[string][]string, pos token.Position) bool {
	lines, ok := sources[pos.Filename]
	if !ok {
		if data, err := os.ReadFile(pos.Filename); err == nil {
			lines = strings.Split(string(data), "\n")
		}
		sources[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) {
		return false
	}
	line := lines[pos.Line-1]
	if pos.Column-1 < len(line) {
		line = line[:pos.Column-1]
	}
	return strings.TrimSpace(line) == ""
}
