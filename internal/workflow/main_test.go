package workflow

import (
	"testing"

	"whisper/internal/leakcheck"
)

// TestMain fails the package when a workflow's steps, or the nodes
// they call, outlive the tests that ran them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
