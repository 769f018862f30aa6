package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/loadctl"
	"whisper/internal/loadgen"
	"whisper/internal/replog"
)

// TestOverloadKnee runs a reduced E12 sweep and asserts the shape of
// the goodput knee: past saturation the protected proxy keeps serving
// (shedding the excess early) while the unprotected one collapses. The
// full-scale knee ratios (≥3× goodput, ≤2× admitted p99) are enforced
// on BENCH_overload.json by benchgate -report; here the bounds are
// the structural ones that must hold at any scale.
func TestOverloadKnee(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	table, res, err := Overload(ctx, OverloadOptions{
		Multipliers: []float64{1, 10},
		Window:      800 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("overload: %v", err)
	}
	t.Logf("\n%s", table.String())

	prot10, unprot10 := res.Point("protected", 10), res.Point("unprotected", 10)
	prot1 := res.Point("protected", 1)
	if prot10 == nil || unprot10 == nil || prot1 == nil {
		t.Fatal("missing sweep points")
	}
	if prot10.Goodput < 2*unprot10.Goodput {
		t.Errorf("no knee: protected goodput %.0f/s vs unprotected %.0f/s at 10x", prot10.Goodput, unprot10.Goodput)
	}
	if prot10.Shed == 0 {
		t.Error("protected proxy shed nothing at 10x offered load")
	}
	// The zero-tolerance rows (no late admitted request, no duplicate
	// execution) hold at any scale; only the two full-scale ratios are
	// left to the gate.
	for _, f := range OverloadReport(table, res).CheckBounds() {
		if !strings.Contains(f, "goodput knee") && !strings.Contains(f, "admitted p99") {
			t.Error(f)
		}
	}
	if prot1.ShedRate > 0.05 {
		t.Errorf("protected proxy sheds %.0f%% at 1x load, want ~none", 100*prot1.ShedRate)
	}
}

// TestOverloadSoakExactlyOnce is the satellite soak: 10× overload plus
// crash–restart churn against a journaled group behind the protected
// proxy. Two invariants: no operation executes twice (sheds and
// retries never break exactly-once), and every shed is a clean
// rejection — a request the admission pipeline rejected must never
// have reached a handler.
func TestOverloadSoakExactlyOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	opts := OverloadOptions{}
	opts.applyDefaults()
	const baseRate = 80.0

	adm := loadctl.NewController(admissionConfig(baseRate, opts))
	c, err := newOverloadCluster(ctx, opts, adm)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer func() { _ = c.Close() }()
	if err := c.warm(ctx, opts); err != nil {
		t.Fatalf("warm: %v", err)
	}

	eng := chaos.New(chaos.Config{Seed: 7, MTBF: 900 * time.Millisecond, MTTR: 200 * time.Millisecond},
		GroupTargets(c.group)...)
	runCtx, stopChaos := context.WithCancel(ctx)
	chaosDone := make(chan struct{})
	go func() { eng.Run(runCtx); close(chaosDone) }()

	var (
		mu      sync.Mutex
		seq     int
		shedIDs []string
	)
	res := loadgen.Run(ctx, loadgen.Options{
		Rate:    10 * baseRate,
		Window:  1500 * time.Millisecond,
		Timeout: 300 * time.Millisecond,
		Seed:    7,
	}, func(cctx context.Context, req loadgen.Request) error {
		mu.Lock()
		seq++
		id := fmt.Sprintf("soak-%06d", seq)
		mu.Unlock()
		cctx = replog.ContextWithKey(cctx, "k-"+id)
		_, err := c.proxy.Invoke(cctx, PaymentSignature(), "ProcessPayment", PaymentRequestXML(id))
		if err == nil {
			c.ledger.RecordAck(id)
		} else if errors.Is(err, loadctl.ErrRejected) {
			mu.Lock()
			shedIDs = append(shedIDs, id)
			mu.Unlock()
		}
		return err
	})

	stopChaos()
	<-chaosDone
	qctx, qcancel := context.WithTimeout(ctx, 30*time.Second)
	err = eng.Quiesce(qctx)
	qcancel()
	if err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	t.Logf("soak: offered=%d good=%d shed=%d errors=%d late=%d crashes under churn",
		res.Offered, res.Good, res.Shed, res.Errors, res.Violations)
	if res.Offered == 0 || res.Good == 0 {
		t.Fatalf("soak produced no traffic: %+v", res)
	}
	if res.Shed == 0 {
		t.Fatal("10x overload shed nothing; the pipeline is not engaged")
	}
	if dups := c.ledger.Duplicates(); len(dups) > 0 {
		t.Errorf("exactly-once violated under overload+churn: %d duplicate executions (first: %v)", len(dups), dups[0])
	}
	if lost := c.ledger.LostAcked(); len(lost) > 0 {
		t.Errorf("%d acked operations never executed (first: %v)", len(lost), lost[0])
	}
	for _, id := range shedIDs {
		if n := c.ledger.Execs(id); n != 0 {
			t.Fatalf("shed request %s executed %d times: a shed must be a clean rejection before any pipe I/O", id, n)
		}
	}
}
