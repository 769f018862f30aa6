package gossip

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when engine round loops or store sweeps outlive the tests that
// started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
