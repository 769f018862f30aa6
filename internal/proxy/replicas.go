package proxy

import (
	"context"
	"fmt"
	"sort"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// target is one replica the proxy can call.
type target struct {
	addr string
	// pipe is the replica's service pipe; nil on a coordinator hint (a
	// redirect target whose pipe has not been looked up yet).
	pipe *p2p.PipeAdvertisement
	// br is the per-address breaker; nil when the policy keeps none or
	// circuit breaking is disabled.
	br *breaker
}

// groupState is everything the proxy remembers about one b-peer group
// between requests. Its fields are guarded by SWSProxy.mu; the
// breakers lock themselves.
type groupState struct {
	// br is the group's circuit breaker; nil when circuit breaking is
	// disabled.
	br *breaker
	// coord is the bound coordinator, or a hint naming where to look
	// for it first.
	coord *target
	// lastCoord remembers the last bound coordinator so re-bindings are
	// countable even after an eviction.
	lastCoord string
	// replicas is the resolved replica set the sibling policies draw
	// from; next is the round-robin cursor.
	replicas []*target
	next     int
	// addrBr keeps the per-address breakers across replica-set
	// rebuilds, so a replica rediscovered after a crash re-enters
	// half-open, not closed.
	addrBr map[string]*breaker
}

// groupFor returns the group's state, creating it on first use.
func (p *SWSProxy) groupFor(gid p2p.ID) *groupState {
	p.mu.Lock()
	defer p.mu.Unlock()
	gs, ok := p.groups[gid]
	if !ok {
		gs = &groupState{addrBr: make(map[string]*breaker)}
		// An opening breaker means the group is failing hard: its bound
		// coordinator and replica pipes are no longer trustworthy, so
		// the next admitted probe re-binds from scratch instead of
		// re-calling a peer the breaker just condemned. (The transition
		// callback runs outside the breaker lock, so taking p.mu there
		// cannot deadlock.)
		gs.br = p.newBreaker("breaker.", func() {
			p.mu.Lock()
			gs.coord, gs.replicas = nil, nil
			p.mu.Unlock()
		})
		p.groups[gid] = gs
	}
	return gs
}

// newBreaker mints a breaker with the proxy's tuning whose transitions
// are counted under prefix ("breaker." for groups, "read.breaker." for
// read replicas); nil when circuit breaking is disabled.
func (p *SWSProxy) newBreaker(prefix string, onOpen func()) *breaker {
	if p.cfg.BreakerThreshold < 0 {
		return nil
	}
	return newBreaker(p.cfg.BreakerThreshold, p.cfg.BreakerCooldown, func(_, to BreakerState) {
		switch to {
		case BreakerOpen:
			p.health.Add(prefix+"opened", 1)
			if onOpen != nil {
				onOpen()
			}
		case BreakerHalfOpen:
			p.health.Add(prefix+"half_open", 1)
		case BreakerClosed:
			p.health.Add(prefix+"closed", 1)
		}
	})
}

// evict removes a replica that proved broken or wrong from the set.
// Caller holds SWSProxy.mu.
func (gs *groupState) evict(t *target) {
	kept := gs.replicas[:0]
	for _, r := range gs.replicas {
		if r != t {
			kept = append(kept, r)
		}
	}
	gs.replicas = kept
}

// bindCoordinator records t as the group's coordinator (or, with a nil
// pipe, as the hint to resolve next), counting a re-binding when the
// coordinator changed. Caller holds p.mu.
func (p *SWSProxy) bindCoordinator(gs *groupState, t *target) {
	if gs.lastCoord != "" && gs.lastCoord != t.addr {
		p.rebinds++
	}
	gs.lastCoord = t.addr
	gs.coord = t
}

// replicaPolicy is what genuinely differs between the ways of using a
// group's replicas; everything else is the one loop in invoke.go.
type replicaPolicy struct {
	// role names the target in spans and errors.
	role string
	// pick chooses the attempt's target among those already known;
	// (nil, nil) means none is known and they must be resolved first.
	pick func(p *SWSProxy, gs *groupState, adv *bpeer.SemanticAdvertisement) (*target, error)
	// siblings: the policy draws from the group's whole replica set
	// (resolveReplicas) instead of binding its coordinator
	// (resolveCoordinator), so a transport failure moves on to a sibling
	// at once instead of waiting out an election.
	siblings bool
	// read marks follower reads: marked requests, per-replica breakers,
	// read counters and the ReadObserver.
	read bool
}

var (
	// coordinatorPolicy is the paper's §3.2 behaviour: every request
	// goes to the group's elected coordinator.
	coordinatorPolicy = &replicaPolicy{role: "coordinator", pick: (*SWSProxy).pickCoordinator}
	// roundRobinPolicy is the §4 load-sharing extension
	// (bpeer.PolicyLoadSharing): every live replica serves, visited in
	// turn. Failed replicas leave the set, which is rebuilt from the
	// rendezvous when it runs dry.
	roundRobinPolicy = &replicaPolicy{role: "replica", pick: (*SWSProxy).pickRoundRobin, siblings: true}
	// readPolicy serves read-only operations of journaling groups from
	// any replica behind the read-index barrier (bpeer/read.go), drawn
	// QoS-weighted. Each replica carries its own breaker: an open one
	// redirects the read to its siblings rather than failing the call.
	readPolicy = &replicaPolicy{role: "replica", pick: (*SWSProxy).pickWeighted, siblings: true, read: true}
)

func (p *SWSProxy) pickCoordinator(gs *groupState, _ *bpeer.SemanticAdvertisement) (*target, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gs.coord != nil && gs.coord.pipe != nil {
		return gs.coord, nil
	}
	return nil, nil
}

func (p *SWSProxy) pickRoundRobin(gs *groupState, _ *bpeer.SemanticAdvertisement) (*target, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(gs.replicas) == 0 {
		return nil, nil
	}
	t := gs.replicas[gs.next%len(gs.replicas)]
	gs.next++
	return t, nil
}

// pickWeighted draws one replica, weighted by its QoS score, among
// those whose breakers would admit an attempt now. The advertised
// profile is the group's (replicas advertise one aggregate §2.4
// profile); what differentiates siblings is the tracker's per-address
// observations — a replica that has been answering slowly or failing
// scores lower and is drawn less often, without being cut off
// entirely. Eligibility is tested without consuming a half-open probe:
// only the drawn replica's breaker is asked to admit, because only the
// drawn replica's call will settle it.
func (p *SWSProxy) pickWeighted(gs *groupState, adv *bpeer.SemanticAdvertisement) (*target, error) {
	p.mu.Lock()
	replicas := append([]*target(nil), gs.replicas...)
	p.mu.Unlock()
	if len(replicas) == 0 {
		return nil, nil
	}
	now := time.Now()
	cands := make([]weighted, 0, len(replicas))
	total := 0.0
	for _, r := range replicas {
		if !r.br.eligible(now) {
			// Open breaker on this replica: redirect its share of reads
			// to the siblings instead of failing the call.
			p.health.Add("read.replica_skipped", 1)
			continue
		}
		score := p.sel.Score(qos.Candidate{Peer: r.addr, Profile: adv.QoS, SemanticScore: 1})
		cands = append(cands, weighted{r, score})
		total += score
	}
	if len(cands) > 0 {
		first := p.draw(cands, total)
		for k := range cands {
			if t := cands[(first+k)%len(cands)].t; t.br.allow(now) {
				return t, nil
			}
			// A concurrent read took this replica's half-open probe
			// first: fall through to the next candidate.
			p.health.Add("read.replica_skipped", 1)
		}
	}
	// Every replica's breaker is open: the loop waits out a cooldown
	// slice and retries (the group breaker tracks overall failure).
	return nil, fmt.Errorf("proxy: group %s: %w (all read replicas)", adv.GID, ErrCircuitOpen)
}

// weighted is one draw candidate.
type weighted struct {
	t     *target
	score float64
}

// draw picks an index with probability proportional to its score
// (uniformly when the scores are degenerate).
func (p *SWSProxy) draw(cands []weighted, total float64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if total <= 0 {
		return p.rng.Intn(len(cands))
	}
	x := p.rng.Float64() * total
	for i, c := range cands {
		x -= c.score
		if x <= 0 {
			return i
		}
	}
	return len(cands) - 1
}

// resolveCoordinator establishes the coordinator binding: ask the
// rendezvous for members, query them (a redirect hint first, then
// highest rank first) for the coordinator, then take the coordinator's
// service pipe from its own answer.
func (p *SWSProxy) resolveCoordinator(ctx context.Context, gid p2p.ID, gs *groupState) error {
	p.mu.Lock()
	var hint string
	if gs.coord != nil {
		hint = gs.coord.addr // redirect target without a pipe yet
	}
	p.mu.Unlock()

	candidates, err := p.memberAddrs(ctx, gid)
	if err != nil {
		return err
	}
	if hint != "" {
		candidates = append([]string{hint}, candidates...)
	}
	var lastErr error = ErrNoCoordinator
	asked := make(map[string]bool)
	for _, addr := range candidates {
		if asked[addr] {
			continue
		}
		asked[addr] = true
		coord, pipeID, err := bpeer.QueryCoordinator(ctx, p.bindRes, addr)
		if err != nil {
			lastErr = err
			continue
		}
		if pipeID == "" {
			// The member is not the coordinator; ask the coordinator
			// itself (unless we already did).
			if asked[coord] {
				continue
			}
			asked[coord] = true
			coord2, pipeID2, err := bpeer.QueryCoordinator(ctx, p.bindRes, coord)
			if err != nil || pipeID2 == "" {
				lastErr = fmt.Errorf("proxy: coordinator %s unreachable", coord)
				continue
			}
			coord, pipeID = coord2, pipeID2
		}
		p.mu.Lock()
		p.bindCoordinator(gs, &target{addr: coord, pipe: &p2p.PipeAdvertisement{
			PipeID: pipeID,
			Kind:   p2p.UnicastPipe,
			Name:   string(gid) + "/service",
			Addr:   coord,
		}})
		p.mu.Unlock()
		return nil
	}
	return lastErr
}

// resolveReplicas rebuilds the group's replica set from the rendezvous
// membership, querying each member for its own service pipe. With
// breakers set, each replica is given its address's breaker.
func (p *SWSProxy) resolveReplicas(ctx context.Context, gid p2p.ID, gs *groupState, breakers bool) error {
	members, err := p.memberAddrs(ctx, gid)
	if err != nil {
		return err
	}
	var replicas []*target
	var lastErr error
	for _, addr := range members {
		pipe, err := bpeer.QueryServicePipe(ctx, p.bindRes, addr)
		if err != nil {
			lastErr = err
			continue
		}
		replicas = append(replicas, &target{addr: pipe.Addr, pipe: pipe})
	}
	if len(replicas) == 0 {
		if lastErr != nil {
			return fmt.Errorf("proxy: no reachable replicas: %w", lastErr)
		}
		return ErrNoCoordinator
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if breakers {
		for _, r := range replicas {
			br, ok := gs.addrBr[r.addr]
			if !ok {
				br = p.newBreaker("read.breaker.", nil)
				gs.addrBr[r.addr] = br
			}
			r.br = br
		}
	}
	gs.replicas, gs.next = replicas, 0
	return nil
}

// memberAddrs returns the group's member addresses, highest rank
// first (the likely coordinator).
func (p *SWSProxy) memberAddrs(ctx context.Context, gid p2p.ID) ([]string, error) {
	advs, err := p.rdv.Members(ctx, gid)
	if err != nil {
		return nil, fmt.Errorf("proxy: group members: %w", err)
	}
	sort.Slice(advs, func(i, j int) bool { return advs[i].Rank > advs[j].Rank })
	out := make([]string, 0, len(advs))
	for _, a := range advs {
		out = append(out, a.Addr)
	}
	return out, nil
}
