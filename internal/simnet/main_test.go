package simnet

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when port pumps, delivery timers or TCP
// readers and watchers outlive the tests that started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
