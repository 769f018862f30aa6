package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock lets the generator tests run on virtual time.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loadResult is what either generator observed. Latency is in
// milliseconds and holds every request, failed ones included.
type loadResult struct {
	attempted int
	correct   int
	latencyMS sample
	// latenessMS is how late the generator ran: open loop, send time
	// minus due time; closed loop, the gap between a reply and the same
	// client's next send.
	latenessMS sample
	// backlogMax is the most requests that were due but not yet sent
	// (open loop only).
	backlogMax int
	// elapsed is first send (open loop: first due time) to last
	// completion.
	elapsed time.Duration
	// due and done record, per request index, when it fell due and when
	// its correct reply arrived (zero when it failed); the failover
	// workload derives outages from them.
	due  []time.Time
	done []time.Time
}

// doFunc sends request `index` and reports whether its reply was
// correct. A closed-loop caller that times only part of the operation
// returns that part as timed; zero means "time the whole call".
type doFunc func(worker, index int) (ok bool, timed time.Duration)

// runClosedLoop runs `clients` callers that each send their next
// request as soon as the previous one completes, until `window` has
// passed. Request indices are handed out from one shared counter so the
// multiset of inputs depends only on the seed table, not on scheduling.
func runClosedLoop(clk clock, clients int, window time.Duration, do doFunc) *loadResult {
	res := &loadResult{}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := clk.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, gap []float64
			correct := 0
			var lastDone time.Time
			for {
				sent := clk.Now()
				if !sent.Before(deadline) {
					break
				}
				if !lastDone.IsZero() {
					gap = append(gap, float64(sent.Sub(lastDone))/float64(time.Millisecond))
				}
				i := int(next.Add(1) - 1)
				ok, timed := do(c, i)
				lastDone = clk.Now()
				if timed == 0 {
					timed = lastDone.Sub(sent)
				}
				lat = append(lat, float64(timed)/float64(time.Millisecond))
				if ok {
					correct++
				}
			}
			mu.Lock()
			res.latencyMS.vals = append(res.latencyMS.vals, lat...)
			res.latenessMS.vals = append(res.latenessMS.vals, gap...)
			res.correct += correct
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.attempted = res.latencyMS.count()
	res.elapsed = clk.Now().Sub(start)
	return res
}

// runOpenLoop sends n requests on a fixed schedule, request i falling
// due at start+i*interval whether or not earlier ones have completed.
// At most `workers` are in flight (the HTTP connection cap); a request
// that finds every worker busy waits, and because latency is measured
// from the due time that wait is charged to it, as the guide requires.
func runOpenLoop(clk clock, workers, n int, interval time.Duration, do doFunc) *loadResult {
	res := &loadResult{
		attempted: n,
		due:       make([]time.Time, n),
		done:      make([]time.Time, n),
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	var (
		next    atomic.Int64
		correct atomic.Int64
		backlog atomic.Int64
		wg      sync.WaitGroup
	)
	start := clk.Now()
	for i := range res.due {
		res.due[i] = start.Add(time.Duration(i) * interval)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := res.due[i]
				now := clk.Now()
				if now.Before(due) {
					clk.Sleep(due.Sub(now))
					now = clk.Now()
				}
				late[i] = float64(now.Sub(due)) / float64(time.Millisecond)
				// Requests already due that no worker has claimed yet.
				fellDue := int64(now.Sub(start)/interval) + 1
				if fellDue > int64(n) {
					fellDue = int64(n)
				}
				behind := fellDue - next.Load()
				for {
					cur := backlog.Load()
					if behind <= cur || backlog.CompareAndSwap(cur, behind) {
						break
					}
				}
				ok, _ := do(w, i)
				end := clk.Now()
				lat[i] = float64(end.Sub(due)) / float64(time.Millisecond)
				if ok {
					correct.Add(1)
					res.done[i] = end
				}
			}
		}(w)
	}
	wg.Wait()
	res.latencyMS.vals = lat
	res.latenessMS.vals = late
	res.correct = int(correct.Load())
	res.backlogMax = int(backlog.Load())
	res.elapsed = clk.Now().Sub(start)
	return res
}

// inputTableSize bounds the seeded input tables; generators index them
// modulo the size, so a run longer than the table repeats its pattern
// (request IDs stay unique — they carry the index, not the table slot).
const inputTableSize = 1 << 14

// seededIndices draws inputTableSize values in [0,n) from the seed.
func seededIndices(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, inputTableSize)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// seededMix marks table slots as writes. Every block of mixBlock slots
// holds exactly the same number of writes, in an order drawn from the
// seed: the seed decides which requests write, never how many, so the
// per-operation counts do not move with it.
func seededMix(seed int64, writesPerBlock int) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, inputTableSize)
	for block := 0; block+mixBlock <= len(out); block += mixBlock {
		for _, slot := range rng.Perm(mixBlock)[:writesPerBlock] {
			out[block+slot] = true
		}
	}
	return out
}

const mixBlock = 10

// fault is one coordinator crash and the later restart of the same
// replica, as offsets from the start of the measured window.
type fault struct {
	crashAt   time.Duration
	restartAt time.Duration
}

// faultSchedule spaces crashes one `period` apart, each jittered by up
// to `jitter` from the seed so crashes do not lock onto the heartbeat
// phase, and restarts the victim `down` after its crash. The last cycle
// ends at least `period` before the window does, so the group is whole
// again when the run checks for a single agreed coordinator.
func faultSchedule(seed int64, window, period, jitter, down time.Duration) []fault {
	rng := rand.New(rand.NewSource(seed))
	var out []fault
	for at := period / 2; at+period <= window; at += period {
		crash := at
		if jitter > 0 {
			crash += time.Duration(rng.Int63n(int64(jitter)))
		}
		out = append(out, fault{crashAt: crash, restartAt: crash + down})
	}
	return out
}
