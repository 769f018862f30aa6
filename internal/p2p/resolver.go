package p2p

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// QueryHandler answers a resolver query addressed to a named handler.
// Returning an error produces an error response at the querier.
type QueryHandler func(from string, payload []byte) ([]byte, error)

// Response is one answer to a propagated resolver query.
type Response struct {
	// From is the responder's transport address.
	From string
	// Payload is the answer body; nil on error.
	Payload []byte
	// Err is non-nil when the responder failed the query.
	Err error
}

// Resolver implements JXTA's generic query/response protocol: named
// handlers answer queries; queries can be sent to a single peer or
// propagated to many, with responses collected on a channel.
type Resolver struct {
	peer  *Peer
	proto string

	mu       sync.Mutex
	handlers map[string]QueryHandler
	pending  map[string]chan Response
	nextID   uint64
}

// Message kinds within the resolver protocol.
const (
	kindQuery    = "query"
	kindResponse = "response"
)

// Resolver message headers.
const (
	hdrHandler = "handler"
	hdrQueryID = "qid"
	hdrError   = "error"
)

// NewResolver attaches a resolver to the peer on the default resolver
// protocol tag.
func NewResolver(peer *Peer) *Resolver { return NewResolverOn(peer, ProtoResolver) }

// NewResolverOn attaches a resolver on a custom protocol tag, so each
// service's query traffic is accounted under its own protocol (the
// per-protocol breakdown in Figure 4 depends on this).
func NewResolverOn(peer *Peer, proto string) *Resolver {
	r := &Resolver{
		peer:     peer,
		proto:    proto,
		handlers: make(map[string]QueryHandler),
		pending:  make(map[string]chan Response),
	}
	peer.Handle(proto, r.handleMessage)
	return r
}

// RegisterHandler installs the handler answering queries for name.
func (r *Resolver) RegisterHandler(name string, h QueryHandler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[name] = h
}

// Query sends a query to one peer and waits for its response or ctx
// cancellation.
func (r *Resolver) Query(ctx context.Context, to, handler string, payload []byte) ([]byte, error) {
	ch, qid := r.newPending(1)
	defer r.dropPending(qid)
	headers := map[string]string{hdrHandler: handler, hdrQueryID: qid}
	if tc := trace.ContextString(ctx); tc != "" {
		headers[trace.HeaderKey] = tc
	}
	msg := simnet.Message{
		Proto:   r.proto,
		Kind:    kindQuery,
		Headers: headers,
		Payload: payload,
	}
	if err := r.peer.Send(to, msg); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		if resp.Err != nil {
			return nil, fmt.Errorf("resolver: query %s@%s: %w", handler, to, resp.Err)
		}
		return resp.Payload, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("resolver: query %s@%s: %w", handler, to, ctx.Err())
	}
}

// Propagate sends the query to every target and hands each response to
// each as it arrives, until every target has answered, each returns
// true (the caller has enough) or ctx ends — whichever way collection
// ends, the pending entry is retired with it. It fails when no target
// could be sent to, or with ctx's error when ctx ended first.
func (r *Resolver) Propagate(ctx context.Context, targets []string, handler string, payload []byte, each func(Response) (done bool)) error {
	ch, qid := r.newPending(len(targets))
	defer r.dropPending(qid)
	msg := simnet.Message{
		Proto:   r.proto,
		Kind:    kindQuery,
		Headers: map[string]string{hdrHandler: handler, hdrQueryID: qid},
		Payload: payload,
	}
	var firstErr error
	sent := 0
	for _, to := range targets {
		if err := r.peer.Send(to, msg); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	if sent == 0 && firstErr != nil {
		return firstErr
	}
	for outstanding := len(targets); outstanding > 0; outstanding-- {
		select {
		case resp := <-ch:
			if each(resp) {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (r *Resolver) newPending(buffer int) (chan Response, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	qid := r.peer.Addr() + "/" + strconv.FormatUint(r.nextID, 10)
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan Response, buffer)
	r.pending[qid] = ch
	return ch, qid
}

func (r *Resolver) dropPending(qid string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, qid)
}

func (r *Resolver) handleMessage(msg simnet.Message) {
	switch msg.Kind {
	case kindQuery:
		r.handleQuery(msg)
	case kindResponse:
		r.handleResponse(msg)
	}
}

func (r *Resolver) handleQuery(msg simnet.Message) {
	name := msg.Header(hdrHandler)
	r.mu.Lock()
	h := r.handlers[name]
	r.mu.Unlock()

	// Server-side span: queries from traced callers (proxy binding
	// lookups, rendezvous membership fetches) show up inside the
	// request trace with the handler that served them.
	var span *trace.Span
	if sc, ok := trace.Parse(msg.Header(trace.HeaderKey)); ok {
		span = r.peer.Tracer().StartRemote(sc, "resolver."+name)
		span.SetAttr("peer", r.peer.Name())
		defer span.End()
	}

	resp := simnet.Message{
		Proto: r.proto,
		Kind:  kindResponse,
		Headers: map[string]string{
			hdrHandler: name,
			hdrQueryID: msg.Header(hdrQueryID),
		},
	}
	if h == nil {
		resp.Headers[hdrError] = fmt.Sprintf("no handler %q", name)
	} else if out, err := h(msg.Src, msg.Payload); err != nil {
		resp.Headers[hdrError] = err.Error()
	} else {
		resp.Payload = out
	}
	if e := resp.Headers[hdrError]; e != "" {
		span.SetAttr("error", e)
	}
	// Best effort: the querier may be gone.
	_ = r.peer.Send(msg.Src, resp)
}

func (r *Resolver) handleResponse(msg simnet.Message) {
	qid := msg.Header(hdrQueryID)
	r.mu.Lock()
	ch := r.pending[qid]
	r.mu.Unlock()
	if ch == nil {
		return // late response for an abandoned query
	}
	resp := Response{From: msg.Src, Payload: msg.Payload}
	if e := msg.Header(hdrError); e != "" {
		resp.Err = fmt.Errorf("%s", e)
	}
	select {
	case ch <- resp:
	default:
		// Channel full: more responses than targets (duplicate
		// delivery); drop.
	}
}
