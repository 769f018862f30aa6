package bench

import (
	"context"
	"fmt"
)

// Throughput runs experiment E4: closed-loop read throughput and
// latency as the group grows ("the proposed solution was able to scale
// to meet desired throughput and latency requirements"; §4's
// load-sharing remark). Both halves are E13's closed loop
// (runFollowersPoint) on a journaled group whose replicas have one
// backend worker each. The coordinator rows send every
// StudentInformation read to the coordinator, the paper's static
// redundancy, so throughput stays flat in group size. The follower rows
// mark it read-only, so every replica serves it behind the read-index
// barrier and throughput grows with the group. opts defaults to E13's
// options with ReplicaCounts {2, 4, 8} and one worker per replica;
// BaselineReplicas is unused.
func Throughput(ctx context.Context, opts FollowersOptions) (*Table, []FollowersPoint, error) {
	if len(opts.ReplicaCounts) == 0 {
		opts.ReplicaCounts = []int{2, 4, 8}
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	opts.applyDefaults()
	var points []FollowersPoint
	for _, followerReads := range []bool{false, true} {
		for _, n := range opts.ReplicaCounts {
			p, err := runFollowersPoint(ctx, opts, n, followerReads)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: throughput at %d peers: %w", n, err)
			}
			points = append(points, p)
		}
	}
	t := followersTable(fmt.Sprintf("Read throughput & latency vs. group size (workers/replica %d, service %v, window %v, %d clients, seed %d)",
		opts.Workers, opts.ServiceTime, opts.Window, opts.Clients, opts.Seed), points)
	t.AddNote("coordinator (the paper's static redundancy): the coordinator serves every read, throughput flat in group size")
	t.AddNote("followers (§4's load-sharing): every replica serves marked reads behind the read-index barrier, throughput grows with the group")
	return t, points, nil
}

func runThroughput(ctx context.Context, f Flags) (*Report, error) {
	t, points, err := Throughput(ctx, FollowersOptions{ReplicaCounts: f.Peers, Window: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("throughput", t)
	for _, p := range points {
		addFollowersPoint(r, fmt.Sprintf("%s.%dpeers", p.Config, p.Replicas), p)
	}
	return r, nil
}
