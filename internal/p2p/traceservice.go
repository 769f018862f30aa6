package p2p

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"

	"whisper/internal/trace"
)

// ProtoTrace tags trace-dump query traffic.
const ProtoTrace = "tracing"

// traceDumpHandler answers with the serving node's recent spans.
const traceDumpHandler = "trace.dump"

// ServeTraces exposes the collector's retained spans over a resolver
// on ProtoTrace, so tooling (peerctl trace) can dump recent traces
// from a running node.
func ServeTraces(peer *Peer, col *trace.Collector) {
	NewResolverOn(peer, ProtoTrace).RegisterHandler(traceDumpHandler, func(string, []byte) ([]byte, error) {
		data, err := col.ExportJSON()
		if err != nil {
			return nil, fmt.Errorf("trace: export: %w", err)
		}
		return data, nil
	})
}

// NewTraceClient attaches a resolver suitable for QueryTraces to the
// peer.
func NewTraceClient(peer *Peer) *Resolver { return NewResolverOn(peer, ProtoTrace) }

// QueryTraces fetches the recent spans retained by the node at addr
// (which must be serving them via ServeTraces).
func QueryTraces(ctx context.Context, r *Resolver, addr string) ([]trace.SpanRecord, error) {
	data, err := r.Query(ctx, addr, traceDumpHandler, nil)
	if err != nil {
		return nil, err
	}
	recs, err := trace.ImportJSON(data)
	if err != nil {
		return nil, fmt.Errorf("trace: decode dump from %s: %w", addr, err)
	}
	return recs, nil
}

// ProtoStatus tags status query traffic.
const ProtoStatus = "status"

// statusHandler answers with the serving node's status.
const statusHandler = "status"

// ServeStatus adds a section to the peer's status answer: one JSON
// object with a member per role the peer plays (an SWS-proxy, a b-peer
// replica, an index node), each holding what fn returns, encoded with
// encoding/json at every query. The first section registers the status
// handler on ProtoStatus, so tooling (peerctl status) reads every role
// of a node from one reply.
func ServeStatus(peer *Peer, section string, fn func() any) {
	peer.mu.Lock()
	first := peer.status == nil
	if first {
		peer.status = make(map[string]func() any)
	}
	peer.status[section] = fn
	peer.mu.Unlock()
	if first {
		NewResolverOn(peer, ProtoStatus).RegisterHandler(statusHandler, func(string, []byte) ([]byte, error) {
			peer.mu.RLock()
			fns := maps.Clone(peer.status)
			peer.mu.RUnlock()
			sections := make(map[string]any, len(fns))
			for name, fn := range fns {
				sections[name] = fn()
			}
			return json.Marshal(sections)
		})
	}
}

// QueryStatus fetches the status answer of the node at addr, one JSON
// document per section. r must be a resolver on ProtoStatus.
func QueryStatus(ctx context.Context, r *Resolver, addr string) (map[string]json.RawMessage, error) {
	data, err := r.Query(ctx, addr, statusHandler, nil)
	if err != nil {
		return nil, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		return nil, fmt.Errorf("status: decode answer from %s: %w", addr, err)
	}
	return sections, nil
}
