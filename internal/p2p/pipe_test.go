package p2p

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestPipeRequestResponse(t *testing.T) {
	h := newHarness(t, 2)
	client := NewPipeService(h.peers[0], h.gen)
	server := NewPipeService(h.peers[1], h.gen)
	in := server.Bind("svc", UnicastPipe)
	for _, p := range h.peers {
		p.Start()
	}

	go func() {
		select {
		case pm := <-in.Messages():
			_ = in.Reply(pm, append([]byte("re:"), pm.Payload...))
		case <-in.Done():
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, in.Advertisement(), []byte("req"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(resp) != "re:req" {
		t.Errorf("resp = %q", resp)
	}
}

func TestPipeCallTimeoutWhenUnserved(t *testing.T) {
	h := newHarness(t, 2)
	client := NewPipeService(h.peers[0], h.gen)
	server := NewPipeService(h.peers[1], h.gen)
	in := server.Bind("svc", UnicastPipe) // nobody consumes
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, in.Advertisement(), []byte("req")); err == nil {
		t.Error("expected timeout")
	}
}

func TestPipeSendToUnboundPipeIsLost(t *testing.T) {
	h := newHarness(t, 2)
	client := NewPipeService(h.peers[0], h.gen)
	server := NewPipeService(h.peers[1], h.gen)
	in := server.Bind("svc", UnicastPipe)
	adv := in.Advertisement()
	in.Close()
	for _, p := range h.peers {
		p.Start()
	}
	// The transport delivers the request, the pipe layer drops it,
	// like JXTA: no reply and no error, so the call waits out its ctx.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, adv, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call to an unbound pipe: err = %v, want the deadline", err)
	}
	select {
	case <-in.Messages():
		t.Error("message delivered on closed pipe")
	default:
	}
}

func TestPipeReplyToOneWayFails(t *testing.T) {
	h := newHarness(t, 1)
	svc := NewPipeService(h.peers[0], h.gen)
	in := svc.Bind("x", UnicastPipe)
	if err := in.Reply(PipeMessage{From: "a"}, nil); err == nil {
		t.Error("expected error replying to a message without a correlation id")
	}
}

func TestPipeCloseIdempotent(t *testing.T) {
	h := newHarness(t, 1)
	svc := NewPipeService(h.peers[0], h.gen)
	in := svc.Bind("x", UnicastPipe)
	in.Close()
	in.Close()
	select {
	case <-in.Done():
	default:
		t.Error("Done not closed after Close")
	}
}

func TestPipeCallAllAckedFanOut(t *testing.T) {
	h := newHarness(t, 4)
	sender := NewPipeService(h.peers[0], h.gen)
	var advs []*PipeAdvertisement
	for _, p := range h.peers[1:] {
		svc := NewPipeService(p, h.gen)
		in := svc.Bind("grp/replog", PropagatePipe)
		advs = append(advs, in.Advertisement())
		t.Cleanup(in.Close)
		go func(in *InputPipe) {
			for {
				select {
				case pm := <-in.Messages():
					_ = in.Reply(pm, []byte("ok:"+in.svc.peer.Addr()))
				case <-in.Done():
					return
				}
			}
		}(in)
	}
	for _, p := range h.peers {
		p.Start()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	results := sender.CallAll(ctx, advs, []byte("entry"))
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Addr != advs[i].Addr {
			t.Errorf("result %d addr = %s, want %s (order preserved)", i, r.Addr, advs[i].Addr)
		}
		if string(r.Payload) != "ok:"+advs[i].Addr {
			t.Errorf("result %d payload = %q", i, r.Payload)
		}
	}
}

func TestPipeCallAllReportsPerTargetErrors(t *testing.T) {
	h := newHarness(t, 3)
	sender := NewPipeService(h.peers[0], h.gen)
	svcOK := NewPipeService(h.peers[1], h.gen)
	okPipe := svcOK.Bind("grp/replog", PropagatePipe)
	t.Cleanup(okPipe.Close)
	go func() {
		select {
		case pm := <-okPipe.Messages():
			_ = okPipe.Reply(pm, []byte("ok"))
		case <-okPipe.Done():
		}
	}()
	svcDead := NewPipeService(h.peers[2], h.gen)
	deadPipe := svcDead.Bind("grp/replog", PropagatePipe) // bound, never served
	for _, p := range h.peers {
		p.Start()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	results := sender.CallAll(ctx, []*PipeAdvertisement{okPipe.Advertisement(), deadPipe.Advertisement()}, []byte("entry"))
	if results[0].Err != nil || string(results[0].Payload) != "ok" {
		t.Fatalf("live target: %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("dead target must report an error, not block the fan-out")
	}
}
