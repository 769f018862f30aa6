package analysis

import (
	"go/ast"
)

// DetRand keeps the deterministic engines deterministic. The chaos
// engine, the simulated network and the fault scheduler promise that a
// seed fully determines their behaviour — the chaos soak sweeps seeds
// in CI and a failure must replay byte-for-byte from its seed alone.
// Two things silently break that promise:
//
//   - the global math/rand source (rand.Intn, rand.Float64, ...),
//     which is process-wide and unseeded: use the engine's injected
//     *rand.Rand (constructing one with rand.New(rand.NewSource(seed))
//     is the approved pattern and is not flagged);
//   - raw wall-clock reads (time.Now, time.Since, time.Until): use the
//     engine's injected Clock so simulated runs can virtualize time.
//
// The rule applies to non-test files of internal/chaos, internal/simnet,
// internal/loadctl and internal/loadgen (the overload
// pipeline and its open-loop generator promise seed-reproducible runs
// too); tests may measure real time.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand and raw wall-clock reads inside the deterministic engines",
	Run:  runDetRand,
}

// detRandScopedPkgs are the engines with a determinism contract.
var detRandScopedPkgs = map[string]bool{
	"whisper/internal/chaos":   true,
	"whisper/internal/simnet":  true,
	"whisper/internal/loadctl": true,
	"whisper/internal/loadgen": true,
	"whisper/internal/gossip":  true,
}

// randConstructors are the only package-level math/rand functions the
// engines may call: they build the injected seeded source (NewZipf
// draws exclusively from the *rand.Rand it is handed).
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// clockReads are the time functions that read the wall clock.
var clockReads = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runDetRand(pass *Pass) {
	if !detRandScopedPkgs[pass.ImportPath] {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		imports := fileImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFuncCall(imports, call)
			if !ok {
				return true
			}
			switch {
			case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
				pass.Reportf(call.Pos(), "global rand.%s in a deterministic engine: draw from the injected seeded *rand.Rand instead", name)
			case path == "time" && clockReads[name]:
				pass.Reportf(call.Pos(), "time.%s in a deterministic engine: read the injected Clock instead of the wall clock", name)
			}
			return true
		})
	}
}
