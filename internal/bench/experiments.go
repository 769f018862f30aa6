package bench

import (
	"context"
	"time"
)

// Flags are the whisper-bench command-line values an experiment may
// read; a zero value selects the experiment's own default.
type Flags struct {
	// Peers is -peers: the group sizes (or replica / fleet counts) of a
	// sweep; single-group experiments read the first.
	Peers []int
	// Window is -window, Trials is -trials, Seed is -seed.
	Window time.Duration
	Trials int
	Seed   int64
	// Trace is -trace (failover).
	Trace bool
	// MTBF, MTTR and NetFaults are the churn flags (chaos, exactlyonce).
	MTBF, MTTR time.Duration
	NetFaults  bool
}

// Experiment is one named runner: it performs the measurement and
// returns the report (table, metrics, acceptance bounds) built from its
// typed result, in the file that defines that result.
type Experiment struct {
	Name string
	Run  func(context.Context, Flags) (*Report, error)
}

// Experiments lists every experiment in the order `whisper-bench -exp
// all` runs them: the paper's evaluation and its ablations (E1–E10),
// then the feature-correctness experiments (E11–E14).
var Experiments = []Experiment{
	{"figure4", runFigure4},
	{"rtt", runRTT},
	{"failover", runFailover},
	{"throughput", runThroughput},
	{"discovery", runDiscovery},
	{"discovery-live", runDiscoveryLive},
	{"backend", runBackend},
	{"qos", runQoS},
	{"availability", runAvailability},
	{"election", runElection},
	{"chaos", runChaos},
	{"exactlyonce", runExactlyOnce},
	{"overload", runOverload},
	{"followers", runFollowers},
	{"gossip", runGossip},
}
