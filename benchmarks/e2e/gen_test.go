package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time for one generator goroutine: Sleep advances
// it, so a test decides exactly how long each request "takes".
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = 10 * time.Millisecond
	// One worker; request 1 stalls for 35 ms, the others take 2 ms. The
	// stall makes requests 2..4 late, and their latency must include
	// the time they waited past their due instant.
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	res := runOpenLoop(clk, 1, len(service), interval, func(_, i int) (bool, time.Duration) {
		clk.Sleep(service[i] * time.Millisecond)
		return i != 5, 0
	})
	// Timeline (ms): r0 due 0 done 2; r1 due 10 done 45; r2 due 20 sent
	// 45 done 47; r3 due 30 sent 47 done 49; r4 due 40 sent 49 done 51;
	// r5 due 50 sent 51 done 53.
	wantLatency := []float64{2, 35, 27, 19, 11, 3}
	wantLate := []float64{0, 0, 25, 17, 9, 1}
	if !reflect.DeepEqual(res.latencyMS.vals, wantLatency) {
		t.Errorf("latency from due time = %v, want %v", res.latencyMS.vals, wantLatency)
	}
	if !reflect.DeepEqual(res.latenessMS.vals, wantLate) {
		t.Errorf("lateness = %v, want %v", res.latenessMS.vals, wantLate)
	}
	if res.attempted != 6 || res.correct != 5 {
		t.Errorf("attempted %d correct %d, want 6 and 5", res.attempted, res.correct)
	}
	// When r2 is finally sent (t=45) requests 3 and 4 are also due and
	// unclaimed.
	if res.backlogMax != 2 {
		t.Errorf("backlogMax = %d, want 2", res.backlogMax)
	}
	if !res.done[5].IsZero() || res.done[4].IsZero() {
		t.Errorf("done must be set for correct replies only: %v", res.done)
	}
	if got, want := res.elapsed, 53*time.Millisecond; got != want {
		t.Errorf("elapsed = %v, want first due to last completion, %v", got, want)
	}
}

func TestClosedLoopStopsAtDeadlineAndHonoursTimedPart(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	res := runClosedLoop(clk, 1, 100*time.Millisecond, func(_, i int) (bool, time.Duration) {
		clk.Sleep(30 * time.Millisecond)
		if i == 0 {
			return true, 7 * time.Millisecond // only part of the op is timed
		}
		return true, 0
	})
	want := []float64{7, 30, 30, 30}
	if !reflect.DeepEqual(res.latencyMS.vals, want) {
		t.Errorf("latencies = %v, want %v", res.latencyMS.vals, want)
	}
	if res.attempted != 4 || res.correct != 4 || res.elapsed != 120*time.Millisecond {
		t.Errorf("attempted %d correct %d elapsed %v", res.attempted, res.correct, res.elapsed)
	}
}

func TestSeededInputsReproduce(t *testing.T) {
	if !reflect.DeepEqual(seededIndices(7, students), seededIndices(7, students)) {
		t.Error("same seed gave different student tables")
	}
	if reflect.DeepEqual(seededIndices(7, students), seededIndices(8, students)) {
		t.Error("different seeds gave the same student table")
	}
	mix := seededMix(7, mixedWrites)
	if !reflect.DeepEqual(mix, seededMix(7, mixedWrites)) {
		t.Error("same seed gave different mixes")
	}
	if reflect.DeepEqual(mix, seededMix(8, mixedWrites)) {
		t.Error("different seeds gave the same mix")
	}
	for block := 0; block+mixBlock <= 1000; block += mixBlock {
		writes := 0
		for _, w := range mix[block : block+mixBlock] {
			if w {
				writes++
			}
		}
		if writes != mixedWrites {
			t.Fatalf("block at %d has %d writes, want %d", block, writes, mixedWrites)
		}
	}
}

func TestFaultScheduleReproducesAndLeavesRecoveryRoom(t *testing.T) {
	const window = 30 * time.Second
	a := faultSchedule(3, window, faultPeriod, faultJitter, faultDown)
	if !reflect.DeepEqual(a, faultSchedule(3, window, faultPeriod, faultJitter, faultDown)) {
		t.Fatal("same seed gave different fault schedules")
	}
	if reflect.DeepEqual(a, faultSchedule(4, window, faultPeriod, faultJitter, faultDown)) {
		t.Error("different seeds gave the same fault schedule")
	}
	if len(a) < 10 {
		t.Fatalf("only %d crashes in %s", len(a), window)
	}
	for i, f := range a {
		if f.restartAt-f.crashAt != faultDown {
			t.Errorf("fault %d: down for %v, want %v", i, f.restartAt-f.crashAt, faultDown)
		}
		if i > 0 && f.crashAt < a[i-1].restartAt+faultDown {
			t.Errorf("fault %d crashes %v after the previous restart", i, f.crashAt-a[i-1].restartAt)
		}
	}
	if last := a[len(a)-1]; last.restartAt > window-faultDown {
		t.Errorf("last restart at %v leaves no time to re-form before %v", last.restartAt, window)
	}
}

func TestColdCatalogueIsFixedAndReachable(t *testing.T) {
	cat := buildColdCatalogue()
	if len(cat.groups) != coldGroups || !reflect.DeepEqual(cat, buildColdCatalogue()) {
		t.Fatalf("catalogue must be %d fixed groups", coldGroups)
	}
	advertised := map[string]bool{}
	for _, g := range cat.groups {
		advertised[g.Action] = true
	}
	if len(cat.subsumed) == 0 {
		t.Fatal("no request is reachable by subsumption only")
	}
	for _, r := range cat.subsumed {
		if advertised[r.sig.Action] {
			t.Errorf("subsumed request action %s is advertised exactly", r.sig.Action)
		}
	}
	for _, r := range append(append([]coldRequest(nil), cat.exact...), cat.subsumed...) {
		if len(r.acceptable) == 0 {
			t.Errorf("request %v matches no group", r.sig)
		}
	}
	if !reflect.DeepEqual(coldRequests(5)[:64], coldRequests(5)[:64]) {
		t.Error("same seed gave different request streams")
	}
	if reflect.DeepEqual(coldRequests(5)[:64], coldRequests(6)[:64]) {
		t.Error("different seeds gave the same request stream")
	}
}
