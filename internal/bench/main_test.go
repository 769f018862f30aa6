package bench

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when an experiment's cluster (peers,
// proxies, load generators, chaos drivers) outlives the experiment.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
