package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"whisper/internal/backend"
	"whisper/internal/core"
	"whisper/internal/qos"
	"whisper/internal/wsdl"
)

// BackendFailoverOptions configures experiment E6, the paper's §4.1
// scenario: the operational database becomes unavailable and a
// semantically equivalent peer transparently answers from the data
// warehouse.
type BackendFailoverOptions struct {
	// Requests is the number of lookups issued across the incident.
	Requests int
	// OutageAfter is the request index at which the DB goes down.
	OutageAfter int
	// Seed drives randomness.
	Seed int64
}

func (o *BackendFailoverOptions) applyDefaults() {
	if o.Requests <= 0 {
		o.Requests = 60
	}
	if o.OutageAfter <= 0 {
		o.OutageAfter = o.Requests / 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// BackendFailoverResult summarizes the incident.
type BackendFailoverResult struct {
	Succeeded    int
	Failed       int
	FromDB       int
	FromWH       int
	SwitchTime   time.Duration
	FirstWHIndex int
}

// BackendFailover runs E6.
func BackendFailover(ctx context.Context, opts BackendFailoverOptions) (*Table, *BackendFailoverResult, error) {
	opts.applyDefaults()
	timings := benchTimings()
	timings.HeartbeatInterval = 30 * time.Millisecond
	timings.HeartbeatTimeout = 120 * time.Millisecond
	timings.ElectionTimeout = 60 * time.Millisecond
	timings.LeaseInterval = 300 * time.Millisecond
	timings.RetryDelay = 30 * time.Millisecond
	bed, err := NewTestBed(ClusterOptions{Seed: opts.Seed, Timings: timings})
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = bed.Close() }()

	records := backend.SeedStudents(50, opts.Seed)
	db := backend.NewOperationalDB(records, 0)
	wh := backend.NewDataWarehouse(records, 0)
	failStop := func(err error) bool { return errors.Is(err, backend.ErrUnavailable) }

	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	_, err = bed.Dep.DeployGroup(ctx, core.GroupSpec{
		Name:      "StudentManagement",
		Signature: StudentSignature(),
		QoS:       qos.Profile{Reliability: 0.99, Availability: 0.99},
		Replicas: []core.ReplicaSpec{
			// Lower rank: warehouse standby.
			{Name: "warehouse-peer", Handler: StudentHandler(wh), FailStop: failStop},
			// Higher rank: operational DB, becomes coordinator.
			{Name: "db-peer", Handler: StudentHandler(db), FailStop: failStop},
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: deploy: %w", err)
	}
	svc, err := bed.Dep.DeployService(wsdl.StudentManagement(), core.ServiceOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: deploy service: %w", err)
	}

	res := &BackendFailoverResult{FirstWHIndex: -1}
	var outageAt time.Time
	for i := 0; i < opts.Requests; i++ {
		if i == opts.OutageAfter {
			db.SetAvailable(false)
			outageAt = time.Now()
		}
		id := fmt.Sprintf("S%04d", 1+i%50)
		out, err := svc.Invoke(ctx, "StudentInformation", StudentRequestXML(id))
		if err != nil {
			res.Failed++
			continue
		}
		res.Succeeded++
		switch {
		case strings.Contains(string(out), "operational-db"):
			res.FromDB++
		case strings.Contains(string(out), "data-warehouse"):
			res.FromWH++
			if res.FirstWHIndex < 0 {
				res.FirstWHIndex = i
				res.SwitchTime = time.Since(outageAt)
			}
		}
	}

	t := &Table{
		Title:   fmt.Sprintf("Backend failover (§4.1 scenario): DB outage after request %d of %d", opts.OutageAfter, opts.Requests),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("requests succeeded", fmt.Sprintf("%d/%d", res.Succeeded, opts.Requests))
	t.AddRow("answered by operational DB", fmt.Sprintf("%d", res.FromDB))
	t.AddRow("answered by data warehouse", fmt.Sprintf("%d", res.FromWH))
	t.AddRow("db→warehouse switch time", res.SwitchTime.String())
	t.AddRow("first warehouse answer at request", fmt.Sprintf("%d", res.FirstWHIndex))
	t.AddNote("paper §4.1: \"a semantically equivalent peer can automatically and transparently handle the service request by retrieving the same information from a data warehouse\"")
	return t, res, nil
}

func runBackend(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := BackendFailover(ctx, BackendFailoverOptions{Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("backend", t)
	r.AddScalar("succeeded", "count", float64(res.Succeeded))
	r.AddScalar("failed", "count", float64(res.Failed))
	r.AddScalar("switch_time", "ns", float64(res.SwitchTime))
	return r, nil
}
