package election

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when an election round outlives the test
// that started it.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
