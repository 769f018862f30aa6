package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSrc parses one source string as a single-file package.
func loadSrc(t *testing.T, importPath, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "src.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFiles(importPath, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestSuppressionTrailingAndPreceding(t *testing.T) {
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import "math/rand"

func trailing() {
	_ = rand.Intn(3) //lint:allow detrand seed sweep draws from process entropy on purpose
}

func preceding() {
	//lint:allow detrand covered by the replay harness
	_ = rand.Intn(3)
}

func unsuppressed() {
	_ = rand.Intn(3)
}
`)
	diags := Run(pkg, []*Analyzer{DetRand})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (only the unsuppressed call): %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 15 {
		t.Errorf("surviving diagnostic on line %d, want 15: %v", diags[0].Pos.Line, diags[0])
	}
}

func TestSuppressionRuleList(t *testing.T) {
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import (
	"math/rand"
	"time"
)

func both() (int, time.Time) {
	return rand.Intn(3), time.Now() //lint:allow detrand,lockorder demonstrating multi-rule suppression
}
`)
	if diags := Run(pkg, []*Analyzer{DetRand}); len(diags) != 0 {
		t.Errorf("multi-rule directive did not suppress: %v", diags)
	}
}

func TestSuppressionWrongRuleDoesNotApply(t *testing.T) {
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import "math/rand"

func wrong() {
	_ = rand.Intn(3) //lint:allow lockorder wrong rule name, must not suppress detrand
}
`)
	diags := Run(pkg, []*Analyzer{DetRand})
	if len(diags) != 1 || diags[0].Rule != "detrand" {
		t.Errorf("want the detrand diagnostic to survive a mismatched directive, got %v", diags)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import "math/rand"

func bare() {
	_ = rand.Intn(3) //lint:allow detrand
}
`)
	diags := Run(pkg, []*Analyzer{DetRand})
	var sawDirective, sawDetrand bool
	for _, d := range diags {
		switch d.Rule {
		case "directive":
			sawDirective = true
			if !strings.Contains(d.Message, "malformed") {
				t.Errorf("directive diagnostic message = %q", d.Message)
			}
		case "detrand":
			sawDetrand = true
		}
	}
	if !sawDirective {
		t.Errorf("reason-less directive not reported: %v", diags)
	}
	if !sawDetrand {
		t.Errorf("reason-less directive must not suppress; got %v", diags)
	}
}

func TestUnknownRuleDirectiveReported(t *testing.T) {
	// A suppression naming a retired analyzer (or a typo) can never
	// suppress anything; it is reported instead of lingering.
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import "time"

func sleepy() {
	time.Sleep(time.Millisecond) //lint:allow retryloop the analyzer this named is gone
	_ = time.Now()               //lint:allow detrand,lockorder,nosuch one good rule, one stale
}
`)
	diags := Run(pkg, []*Analyzer{DetRand})
	var stale []string
	for _, d := range diags {
		if d.Rule != "directive" {
			t.Errorf("unexpected diagnostic: %v", d)
			continue
		}
		stale = append(stale, d.Message)
	}
	if len(stale) != 2 || !strings.Contains(stale[0], `"retryloop"`) || !strings.Contains(stale[1], `"nosuch"`) {
		t.Errorf("want the retryloop and nosuch directives reported, got %q", stale)
	}
}

func TestDiagnosticsSortedAndStable(t *testing.T) {
	pkg := loadSrc(t, "whisper/internal/chaos", `package p

import (
	"math/rand"
	"time"
)

func z() { _ = time.Now() }
func a() { _ = rand.Intn(3) }
`)
	diags := Run(pkg, []*Analyzer{DetRand})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Pos.Line > diags[1].Pos.Line {
		t.Errorf("diagnostics not ordered by position: %v", diags)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	seen := map[string]bool{}
	var names []string
	for _, a := range all {
		names = append(names, a.Name)
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.ProjectRun == nil) {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if got, want := strings.Join(names, " "), "allocbudget ctxflow detrand errident lockorder spanend"; got != want {
		t.Errorf("suite = %s, want %s", got, want)
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) != nil")
	}
}
