package chaos

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when a soak's peers, proxies or load
// goroutines outlive the test that started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
