package p2p

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// PipeMessage is one payload received on an input pipe.
type PipeMessage struct {
	// From is the sender's transport address.
	From string
	// CorrID correlates the request with its reply.
	CorrID string
	// Trace is the sender's trace context (zero when the sender was
	// not tracing); receivers parent their spans under it.
	Trace trace.SpanContext
	// Payload is the message body.
	Payload []byte
}

// PipeService implements JXTA pipes over the peer: input pipes bound
// here answer correlated requests (Call), one target or a set of them
// at once (CallAll). One PipeService is attached per peer.
type PipeService struct {
	peer *Peer
	gen  *IDGen

	mu      sync.Mutex
	inputs  map[ID]*InputPipe
	pending map[string]chan []byte
	nextID  uint64
}

// Pipe message kinds.
const (
	kindPipeRequest  = "request"
	kindPipeResponse = "response"
)

// Pipe message headers.
const (
	hdrPipeID = "pipe"
	hdrCorrID = "corr"
)

// NewPipeService attaches a pipe service to the peer.
func NewPipeService(peer *Peer, gen *IDGen) *PipeService {
	s := &PipeService{
		peer:    peer,
		gen:     gen,
		inputs:  make(map[ID]*InputPipe),
		pending: make(map[string]chan []byte),
	}
	peer.Handle(ProtoPipe, s.handleMessage)
	return s
}

// InputPipe is the receiving end of a pipe bound at this peer.
// Consume messages with a select over Messages() and Done(); the
// message channel is never closed, Done() signals Close.
type InputPipe struct {
	svc *PipeService
	adv *PipeAdvertisement
	ch  chan PipeMessage

	done      chan struct{}
	closeOnce sync.Once
}

// Bind creates an input pipe with a fresh pipe ID and returns it. The
// returned pipe's advertisement can be published via discovery so
// remote peers can send to it.
func (s *PipeService) Bind(name string, kind PipeKind) *InputPipe {
	adv := &PipeAdvertisement{
		PipeID: s.gen.New(PipeIDKind),
		Kind:   kind,
		Name:   name,
		Addr:   s.peer.Addr(),
	}
	in := &InputPipe{
		svc: s,
		adv: adv,
		// Buffer a handful of messages so short bursts do not block
		// the dispatch goroutine behind a slow consumer.
		ch:   make(chan PipeMessage, 16),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	s.inputs[adv.PipeID] = in
	s.mu.Unlock()
	return in
}

// Advertisement returns the pipe's advertisement.
func (p *InputPipe) Advertisement() *PipeAdvertisement { return p.adv }

// Messages returns the channel of inbound pipe messages. The channel
// is never closed; select on Done() to observe pipe shutdown.
func (p *InputPipe) Messages() <-chan PipeMessage { return p.ch }

// Done is closed when the pipe is closed.
func (p *InputPipe) Done() <-chan struct{} { return p.done }

// Close unbinds the pipe. Idempotent.
func (p *InputPipe) Close() {
	p.closeOnce.Do(func() {
		p.svc.mu.Lock()
		delete(p.svc.inputs, p.adv.PipeID)
		p.svc.mu.Unlock()
		close(p.done)
	})
}

// Reply answers a request received on this pipe.
func (p *InputPipe) Reply(to PipeMessage, payload []byte) error {
	if to.CorrID == "" {
		return fmt.Errorf("pipe: reply to a message without a correlation id")
	}
	return p.svc.peer.Send(to.From, simnet.Message{
		Proto:   ProtoPipe,
		Kind:    kindPipeResponse,
		Headers: map[string]string{hdrCorrID: to.CorrID},
		Payload: payload,
	})
}

// CallResult is one fan-out reply from CallAll.
type CallResult struct {
	// Addr is the callee's transport address (adv.Addr).
	Addr string
	// Payload is the reply body when Err is nil.
	Payload []byte
	Err     error
}

// CallAll sends the same request to every pipe in advs concurrently and
// waits for every reply (or ctx cancellation): an acked fan-out, each
// target's reply or error reported in the result slice, ordered like
// advs. It is the replication primitive for the journal propagate pipe
// (internal/replog).
func (s *PipeService) CallAll(ctx context.Context, advs []*PipeAdvertisement, payload []byte) []CallResult {
	results := make([]CallResult, len(advs))
	var wg sync.WaitGroup
	for i, adv := range advs {
		wg.Add(1)
		go func(i int, adv *PipeAdvertisement) {
			defer wg.Done()
			body, err := s.Call(ctx, adv, payload)
			results[i] = CallResult{Addr: adv.Addr, Payload: body, Err: err}
		}(i, adv)
	}
	wg.Wait()
	return results
}

// Call sends a request to the pipe and waits for the reply or context
// cancellation.
func (s *PipeService) Call(ctx context.Context, adv *PipeAdvertisement, payload []byte) ([]byte, error) {
	s.mu.Lock()
	s.nextID++
	corr := s.peer.Addr() + "/" + strconv.FormatUint(s.nextID, 10)
	ch := make(chan []byte, 1)
	s.pending[corr] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, corr)
		s.mu.Unlock()
	}()

	headers := map[string]string{hdrPipeID: string(adv.PipeID), hdrCorrID: corr}
	if tc := trace.ContextString(ctx); tc != "" {
		headers[trace.HeaderKey] = tc
	}
	err := s.peer.Send(adv.Addr, simnet.Message{
		Proto:   ProtoPipe,
		Kind:    kindPipeRequest,
		Headers: headers,
		Payload: payload,
	})
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("pipe: call %s: %w", adv.Name, ctx.Err())
	}
}

func (s *PipeService) handleMessage(msg simnet.Message) {
	switch msg.Kind {
	case kindPipeRequest:
		pipeID := ID(msg.Header(hdrPipeID))
		s.mu.Lock()
		in := s.inputs[pipeID]
		s.mu.Unlock()
		if in == nil {
			return // pipe unbound; message is lost, like JXTA
		}
		pm := PipeMessage{From: msg.Src, CorrID: msg.Header(hdrCorrID), Payload: msg.Payload}
		if sc, ok := trace.Parse(msg.Header(trace.HeaderKey)); ok {
			pm.Trace = sc
		}
		// Blocking send keeps backpressure on this message's dispatch
		// goroutine only; Done aborts delivery if the pipe closes.
		select {
		case in.ch <- pm:
		case <-in.done:
		}
	case kindPipeResponse:
		corr := msg.Header(hdrCorrID)
		s.mu.Lock()
		ch := s.pending[corr]
		s.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg.Payload:
			default:
			}
		}
	}
}
