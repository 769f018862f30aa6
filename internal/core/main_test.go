package core

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when deployment peers, groups, shards or services outlive the tests that
// started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
