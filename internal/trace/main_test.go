package trace

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when collector or exporter goroutines outlive the tests that
// started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
