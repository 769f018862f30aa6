package p2p

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// wireCtx generates SpanContexts from the alphabet Tracer-minted IDs
// use, for quick property tests.
type wireCtx trace.SpanContext

const idAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-"

func randomID(rng *rand.Rand) trace.ID {
	n := 1 + rng.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = idAlphabet[rng.Intn(len(idAlphabet))]
	}
	return trace.ID(b)
}

// Generate implements quick.Generator.
func (wireCtx) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(wireCtx{TraceID: randomID(rng), SpanID: randomID(rng)})
}

// TestTraceEnvelopeRoundTripProperty checks that any tracer-shaped
// span context injected into a p2p message envelope extracts back
// unchanged — the p2p half of the propagation contract (the SOAP half
// lives in internal/soap).
func TestTraceEnvelopeRoundTripProperty(t *testing.T) {
	prop := func(w wireCtx) bool {
		sc := trace.SpanContext(w)
		msg := simnet.Message{Proto: ProtoPipe, Kind: "request"}
		msg = msg.WithHeader(trace.HeaderKey, sc.String())
		got, ok := trace.Parse(msg.Header(trace.HeaderKey))
		return ok && got == sc
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPipeCallPropagatesTraceContext(t *testing.T) {
	h := newHarness(t, 2)
	client := NewPipeService(h.peers[0], h.gen)
	server := NewPipeService(h.peers[1], h.gen)
	in := server.Bind("svc", UnicastPipe)
	for _, p := range h.peers {
		p.Start()
	}

	tr := trace.NewSeeded(trace.NewCollector(16), 1)
	ctx, span := tr.StartSpan(context.Background(), "client.request")
	defer span.End()

	gotTrace := make(chan trace.SpanContext, 1)
	go func() {
		select {
		case pm := <-in.Messages():
			gotTrace <- pm.Trace
			_ = in.Reply(pm, []byte("ok"))
		case <-in.Done():
		}
	}()

	callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := client.Call(callCtx, in.Advertisement(), []byte("req")); err != nil {
		t.Fatalf("call: %v", err)
	}
	select {
	case sc := <-gotTrace:
		if sc != span.Context() {
			t.Errorf("server saw %+v, want %+v", sc, span.Context())
		}
	case <-time.After(time.Second):
		t.Fatal("no request seen")
	}
}

func TestResolverQueryRecordsServerSpan(t *testing.T) {
	h := newHarness(t, 2)
	qr := NewResolver(h.peers[0])
	sr := NewResolver(h.peers[1])
	serverCol := trace.NewCollector(16)
	h.peers[1].SetTracer(trace.NewSeeded(serverCol, 2))
	sr.RegisterHandler("echo", func(_ string, payload []byte) ([]byte, error) {
		return payload, nil
	})
	for _, p := range h.peers {
		p.Start()
	}

	tr := trace.NewSeeded(trace.NewCollector(16), 3)
	ctx, span := tr.StartSpan(context.Background(), "op")
	callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := qr.Query(callCtx, h.peers[1].Addr(), "echo", []byte("x")); err != nil {
		t.Fatalf("query: %v", err)
	}
	span.End()

	// The server ends its span after sending the reply.
	recs := serverCol.Snapshot()
	for deadline := time.Now().Add(time.Second); len(recs) == 0 && time.Now().Before(deadline); recs = serverCol.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if len(recs) != 1 {
		t.Fatalf("server recorded %d spans, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "resolver.echo" || rec.TraceID != span.Context().TraceID || rec.ParentID != span.Context().SpanID {
		t.Errorf("server span = %+v", rec)
	}
}

func TestServeAndQueryTraces(t *testing.T) {
	h := newHarness(t, 2)
	col := trace.NewCollector(16)
	tr := trace.NewSeeded(col, 4)
	_, s := tr.StartSpan(context.Background(), "remembered")
	s.End()
	ServeTraces(h.peers[1], col)
	client := NewTraceClient(h.peers[0])
	for _, p := range h.peers {
		p.Start()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	recs, err := QueryTraces(ctx, client, h.peers[1].Addr())
	if err != nil {
		t.Fatalf("query traces: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "remembered" {
		t.Errorf("dump = %+v", recs)
	}
}
