package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/wsdl"
)

// claimsWSDL builds a second, unrelated semantic service description.
func claimsWSDL() *wsdl.Definitions {
	d := wsdl.New("ClaimProcessing", "http://example.org/services/claims")
	d.DeclareNamespace("b2b", ontology.B2BNS)
	itf := d.AddInterface("ClaimPort")
	itf.AddOperation("ProcessClaim", "b2b:ClaimProcessing",
		[]wsdl.MessageRef{wsdl.In("claim", "b2b:ClaimID")},
		[]wsdl.MessageRef{wsdl.Out("status", "b2b:ClaimStatus")},
	)
	return d
}

func claimSig() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptClaimProcessing,
		Inputs:  []string{ontology.ConceptClaimID},
		Outputs: []string{ontology.ConceptClaimStatus},
	}
}

// TestTwoServicesDoNotCrossRoute deploys the student and claims
// domains side by side and verifies each service only ever reaches its
// own semantically matching group.
func TestTwoServicesDoNotCrossRoute(t *testing.T) {
	d := newSimDeployment(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	deployStudentGroup(t, d, 2)
	if _, err := d.DeployGroup(ctx, GroupSpec{
		Name:      "Claims",
		Signature: claimSig(),
		Handler: bpeer.HandlerFunc(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
			return []byte("<ClaimStatus>approved</ClaimStatus>"), nil
		}),
		Count: 2,
	}); err != nil {
		t.Fatalf("deploy claims: %v", err)
	}

	students, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy students: %v", err)
	}
	claims, err := d.DeployService(claimsWSDL(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy claims service: %v", err)
	}

	out, err := students.Invoke(ctx, "StudentInformation", studentRequestXML("S0005"))
	if err != nil {
		t.Fatalf("student invoke: %v", err)
	}
	if !strings.Contains(string(out), "<ID>S0005</ID>") {
		t.Errorf("student out = %q", out)
	}
	out, err = claims.Invoke(ctx, "ProcessClaim", []byte("<ProcessClaim><ClaimID>C1</ClaimID></ProcessClaim>"))
	if err != nil {
		t.Fatalf("claim invoke: %v", err)
	}
	if !strings.Contains(string(out), "approved") {
		t.Errorf("claim out = %q", out)
	}
	// Cross-check: the student service must not route to Claims even
	// if asked for an operation whose payload looks like a claim.
	if _, err := claims.Invoke(ctx, "StudentInformation", studentRequestXML("S1")); err == nil {
		t.Error("claims service should not expose the student operation")
	}
}

// TestSoakUnderRepeatedCrashes drives load while two timers
// crash two coordinators in sequence; the service must keep
// answering throughout (with elevated latency during elections).
func TestSoakUnderRepeatedCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	d := newSimDeployment(t)
	g := deployStudentGroup(t, d, 4)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0001")); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	// Two timed crashes, 100 ms and 700 ms into the load.
	crashed := make(chan error, 2)
	for _, at := range []time.Duration{100 * time.Millisecond, 700 * time.Millisecond} {
		timer := time.AfterFunc(at, func() {
			_, err := g.CrashCoordinator()
			crashed <- err
		})
		defer timer.Stop()
	}

	failures := 0
	for i := 0; i < 100; i++ {
		if _, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0002")); err != nil {
			failures++
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		if err := <-crashed; err != nil {
			t.Fatalf("crash coordinator #%d failed: %v", i, err)
		}
	}
	if failures > 0 {
		t.Errorf("%d/100 requests failed across two coordinator crashes", failures)
	}
	// Two survivors left; the group still has a coordinator.
	if g.Coordinator() == "" {
		t.Error("no coordinator after soak")
	}
	if got := len(g.Peers()); got != 2 {
		t.Errorf("surviving peers = %d, want 2", got)
	}
}
