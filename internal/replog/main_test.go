package replog

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when journal waiters outlive the tests that
// started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
