package bench

import (
	"context"
	"encoding/xml"
	"fmt"
	"time"

	"whisper/internal/baseline"
	"whisper/internal/chaos"
	"whisper/internal/core"
	"whisper/internal/metrics"
	"whisper/internal/ontology"
	"whisper/internal/replog"
)

// ExactlyOnceOptions configures experiment E11: exactly-once execution
// of non-idempotent operations under crash–restart churn, comparing
// the replicated operation journal (internal/replog) against plain
// at-least-once retries and the WS-FTM-style client-retry baseline.
type ExactlyOnceOptions struct {
	// Replicas is the group size (default 3).
	Replicas int
	// SteadyOps is the number of steady-state operations used to
	// measure the journal's commit-latency overhead (default 150).
	SteadyOps int
	// OpDelay is the handler's processing time per payment — the
	// window in which a crash loses the reply of an already-executed
	// operation (default 25ms).
	OpDelay time.Duration
	// MTBF/MTTR drive the crash–restart churn (defaults 500ms/125ms,
	// the compressed PR-2 soak schedule: U = 0.2).
	MTBF time.Duration
	MTTR time.Duration
	// Window is the churn measurement window per strategy (default 4s).
	Window time.Duration
	// OpTimeout bounds how long the client re-drives one logical
	// operation before giving up (default 3s).
	OpTimeout time.Duration
	// Seed drives the fault schedule and all other randomness.
	Seed int64
}

func (o *ExactlyOnceOptions) applyDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.SteadyOps <= 0 {
		o.SteadyOps = 150
	}
	if o.OpDelay <= 0 {
		o.OpDelay = 25 * time.Millisecond
	}
	if o.MTBF <= 0 {
		o.MTBF = 500 * time.Millisecond
	}
	if o.MTTR <= 0 {
		o.MTTR = 125 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 4 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 3 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ExactlyOnceResult is the outcome for one strategy.
type ExactlyOnceResult struct {
	Strategy string
	// Commit is the steady-state (churn-free) commit latency.
	Commit *metrics.Histogram
	// Ops counts the logical operations attempted during churn; Acked
	// how many were acknowledged to the client.
	Ops   int
	Acked int
	// Executed/Executions are distinct operations executed and total
	// handler executions (Executions > Executed means duplicates).
	Executed   int
	Executions int
	// Duplicates and LostAcked are the violated exactly-once
	// invariants: operations executed more than once, and operations
	// acked to the client that never executed.
	Duplicates []string
	LostAcked  []string
	Crashes    int64
	Restarts   int64
}

// PaymentSignature is E11's non-idempotent B2B operation (a claim
// payment: executing it twice pays twice).
func PaymentSignature() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptClaimProcessing,
		Inputs:  []string{ontology.ConceptClaimID},
		Outputs: []string{ontology.ConceptClaimStatus},
	}
}

// PaymentRequestXML builds the payment request body.
func PaymentRequestXML(id string) []byte {
	return []byte(`<Payment><ID>` + id + `</ID></Payment>`)
}

func paymentID(payload []byte) (string, error) {
	var req struct {
		XMLName xml.Name `xml:"Payment"`
		ID      string   `xml:"ID"`
	}
	if err := xml.Unmarshal(payload, &req); err != nil {
		return "", fmt.Errorf("bad payment request: %w", err)
	}
	return req.ID, nil
}

// recordPayment is the finiteBackend begin step of a payment: the
// state change happens up front (the funds move, the ledger records the
// execution), then the receipt takes the service time to produce — so a
// crash during processing leaves an executed operation whose reply is
// lost, exactly the case the journal exists for.
func recordPayment(ledger *chaos.OpLedger) func(string, []byte) ([]byte, error) {
	return func(_ string, payload []byte) ([]byte, error) {
		id, err := paymentID(payload)
		if err != nil {
			return nil, err
		}
		ledger.RecordExec(id)
		return []byte("<Receipt><ID>" + id + "</ID></Receipt>"), nil
	}
}

// ExactlyOnce runs E11 and returns the per-strategy comparison table.
func ExactlyOnce(ctx context.Context, opts ExactlyOnceOptions) (*Table, []ExactlyOnceResult, error) {
	opts.applyDefaults()
	var results []ExactlyOnceResult
	for _, strategy := range []string{"replog", "retry", "wsftm"} {
		var (
			res ExactlyOnceResult
			err error
		)
		switch strategy {
		case "wsftm":
			res, err = ExactlyOnceWSFTM(ctx, opts)
		default:
			res, err = ExactlyOnceWhisper(ctx, opts, strategy == "replog")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench: exactlyonce %s: %w", strategy, err)
		}
		results = append(results, res)
	}

	t := &Table{
		Title: fmt.Sprintf("Exactly-once execution under churn (MTBF %v, MTTR %v, %v window, seed %d)",
			opts.MTBF, opts.MTTR, opts.Window, opts.Seed),
		Columns: []string{"strategy", "commit p50", "commit p95", "ops", "acked", "executed", "executions", "duplicates", "lost acks", "crashes"},
	}
	for _, r := range results {
		t.AddRow(r.Strategy,
			r.Commit.Percentile(50).String(),
			r.Commit.Percentile(95).String(),
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%d", r.Acked),
			fmt.Sprintf("%d", r.Executed),
			fmt.Sprintf("%d", r.Executions),
			fmt.Sprintf("%d", len(r.Duplicates)),
			fmt.Sprintf("%d", len(r.LostAcked)),
			fmt.Sprintf("%d", r.Crashes))
	}
	if len(results) >= 2 && results[0].Strategy == "replog" && results[1].Strategy == "retry" {
		jp50, jp95 := results[0].Commit.Percentile(50), results[0].Commit.Percentile(95)
		rp50, rp95 := results[1].Commit.Percentile(50), results[1].Commit.Percentile(95)
		t.AddNote(fmt.Sprintf("journal commit-latency overhead (steady state): p50 %v vs %v (+%v), p95 %v vs %v (+%v)",
			jp50, rp50, jp50-rp50, jp95, rp95, jp95-rp95))
	}
	t.AddNote("replog replicates PREPARE before executing and COMMIT (with the cached reply) before acking, so a retried key replays the receipt instead of paying twice; retry/wsftm re-execute whenever a reply is lost")
	for _, r := range results {
		if len(r.Duplicates) > 0 || len(r.LostAcked) > 0 {
			t.AddNote(fmt.Sprintf("%s violated exactly-once: %d duplicate executions, %d lost acked ops",
				r.Strategy, len(r.Duplicates), len(r.LostAcked)))
		}
	}
	return t, results, nil
}

// ExactlyOnceWhisper measures one Whisper strategy: journaled
// ("replog") or plain at-least-once retries ("retry", the group
// deployed with NoJournal).
func ExactlyOnceWhisper(ctx context.Context, opts ExactlyOnceOptions, journaled bool) (ExactlyOnceResult, error) {
	opts.applyDefaults()
	strategy := "retry"
	if journaled {
		strategy = "replog"
	}
	res := ExactlyOnceResult{Strategy: strategy, Commit: metrics.NewHistogram()}
	ledger := chaos.NewOpLedger()

	bed, err := NewTestBed(ClusterOptions{Seed: opts.Seed})
	if err != nil {
		return res, err
	}
	defer func() { _ = bed.Close() }()

	deployCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	group, err := bed.Dep.DeployGroup(deployCtx, core.GroupSpec{
		Name:      "PaymentProcessing",
		Signature: PaymentSignature(),
		QoS:       benchQoS,
		Handler:   finiteBackend(0, opts.OpDelay, recordPayment(ledger)),
		NoJournal: !journaled,
		Count:     opts.Replicas,
	})
	cancel()
	if err != nil {
		return res, err
	}
	prox, err := bed.NewProxy("pay-proxy", core.ProxyOptions{})
	if err != nil {
		return res, err
	}

	err = driveExactlyOnce(ctx, opts, &res, ledger, GroupTargets(group), func(cctx context.Context, id string) error {
		// Every attempt of one logical payment carries the SAME
		// idempotency key.
		_, err := prox.Invoke(replog.ContextWithKey(cctx, "pay-"+id), PaymentSignature(), "ProcessPayment", PaymentRequestXML(id))
		return err
	})
	return res, err
}

// driveExactlyOnce is the client side of one E11 strategy: the
// steady-state phase, then the churn phase with targets crashing and
// restarting under it, then the ledger's verdict into res. invoke makes
// one attempt at the logical payment id under ctx's deadline.
func driveExactlyOnce(ctx context.Context, opts ExactlyOnceOptions, res *ExactlyOnceResult, ledger *chaos.OpLedger,
	targets []chaos.Target, invoke func(ctx context.Context, id string) error) error {
	attempt := func(id string, deadline time.Time) error {
		cctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		return invoke(cctx, id)
	}

	// Steady state: churn-free commit latency (the journal's
	// replication cost shows up here as p50/p95 overhead vs "retry").
	for i := 0; i < opts.SteadyOps; i++ {
		id := fmt.Sprintf("steady-%s-%04d", res.Strategy, i)
		start := time.Now()
		if err := attempt(id, start.Add(opts.OpTimeout)); err == nil {
			res.Commit.Observe(time.Since(start))
			ledger.RecordAck(id)
		}
	}

	// Churn: the client re-drives each logical payment until it is
	// acknowledged or the operation budget runs out, while replicas
	// crash and restart underneath it.
	eng := chaos.New(chaos.Config{Seed: opts.Seed, MTBF: opts.MTBF, MTTR: opts.MTTR}, targets...)
	runCtx, stopChaos := context.WithCancel(ctx)
	chaosDone := make(chan struct{})
	go func() { eng.Run(runCtx); close(chaosDone) }()

	deadline := time.Now().Add(opts.Window)
	for i := 0; time.Now().Before(deadline); i++ {
		res.Ops++
		id := fmt.Sprintf("churn-%s-%04d", res.Strategy, i)
		opDeadline := time.Now().Add(opts.OpTimeout)
		for {
			if err := attempt(id, opDeadline); err == nil {
				ledger.RecordAck(id)
				res.Acked++
				break
			}
			if !time.Now().Before(opDeadline) {
				break // outcome unknown; the client gives up without an ack
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	stopChaos()
	<-chaosDone
	quiesceCtx, qCancel := context.WithTimeout(ctx, 30*time.Second)
	defer qCancel()
	if err := eng.Quiesce(quiesceCtx); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	res.Executed, res.Executions, _ = ledger.Counts()
	res.Duplicates = ledger.Duplicates()
	res.LostAcked = ledger.LostAcked()
	res.Crashes = eng.Counts().Get("crash")
	res.Restarts = eng.Counts().Get("restart")
	return nil
}

// endpointTarget adapts a baseline FuncEndpoint to a chaos target:
// crashing it flips availability, so an in-flight payment executes but
// its reply is lost.
type endpointTarget struct {
	name string
	ep   *baseline.FuncEndpoint
}

func (t *endpointTarget) Name() string                    { return t.name }
func (t *endpointTarget) Addr() string                    { return t.name }
func (t *endpointTarget) Running() bool                   { return t.ep.Available() }
func (t *endpointTarget) Crash() error                    { t.ep.SetAvailable(false); return nil }
func (t *endpointTarget) Restart(_ context.Context) error { t.ep.SetAvailable(true); return nil }

// ExactlyOnceWSFTM measures the WS-FTM-style baseline: the client
// holds the replica list and retries on failure with no idempotency
// key, so any executed-but-unacknowledged operation is re-executed.
func ExactlyOnceWSFTM(ctx context.Context, opts ExactlyOnceOptions) (ExactlyOnceResult, error) {
	opts.applyDefaults()
	res := ExactlyOnceResult{Strategy: "wsftm", Commit: metrics.NewHistogram()}
	ledger := chaos.NewOpLedger()

	pay := finiteBackend(0, opts.OpDelay, recordPayment(ledger))
	eps := make([]baseline.Endpoint, opts.Replicas)
	targets := make([]chaos.Target, opts.Replicas)
	for i := range eps {
		var ep *baseline.FuncEndpoint
		ep = baseline.NewFuncEndpoint(func(ctx context.Context, op string, payload []byte) ([]byte, error) {
			receipt, err := pay.Invoke(ctx, op, payload)
			if err == nil && !ep.Available() {
				// Crashed while processing: the payment executed, the
				// receipt is lost.
				return nil, baseline.ErrEndpointDown
			}
			return receipt, err
		})
		eps[i] = ep
		targets[i] = &endpointTarget{name: fmt.Sprintf("wsftm-%d", i), ep: ep}
	}
	client := baseline.NewClientRetry(eps...)

	err := driveExactlyOnce(ctx, opts, &res, ledger, targets, func(cctx context.Context, id string) error {
		_, err := client.Invoke(cctx, "ProcessPayment", PaymentRequestXML(id))
		return err
	})
	return res, err
}

func runExactlyOnce(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := ExactlyOnce(ctx, ExactlyOnceOptions{MTBF: f.MTBF, MTTR: f.MTTR, Window: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("exactlyonce", t)
	for _, p := range res {
		r.AddHistogram(p.Strategy+".commit", p.Commit)
		r.AddScalar(p.Strategy+".ops", "count", float64(p.Ops))
		r.AddScalar(p.Strategy+".acked", "count", float64(p.Acked))
		r.AddScalar(p.Strategy+".executions", "count", float64(p.Executions))
		r.AddScalar(p.Strategy+".duplicates", "count", float64(len(p.Duplicates)))
		r.AddScalar(p.Strategy+".lost_acked", "count", float64(len(p.LostAcked)))
		r.AddScalar(p.Strategy+".crashes", "count", float64(p.Crashes))
	}
	return r, nil
}
