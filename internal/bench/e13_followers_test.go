package bench

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/replog"
)

// TestFollowerSoak churns a 3-replica follower-read cluster (seeded
// crash–restart cycles) while concurrent readers and a keyed writer
// hammer it, and checks E13's invariant: no read ever observes a
// committed prefix older than the read-index it was issued at, no
// matter which replica served it or what crashed around it. Read
// errors are tolerated under churn (availability is E10's business);
// staleness is not. Seeds come from CHAOS_SEEDS like the chaos soak.
func TestFollowerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("follower soak skipped in -short mode")
	}
	for _, seed := range chaosSoakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			followerSoakOneSeed(t, seed)
		})
	}
}

func followerSoakOneSeed(t *testing.T, seed int64) {
	opts := FollowersOptions{Seed: seed}
	opts.applyDefaults()
	c, err := newFollowersCluster(context.Background(), opts, 3, true)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	warmCtx, warmCancel := context.WithTimeout(context.Background(), 30*time.Second)
	wctx := replog.ContextWithKey(warmCtx, "w-warm")
	if _, err := c.invoke(wctx, "UpdateStudent", []byte("warm")); err != nil {
		warmCancel()
		t.Fatalf("warm write: %v", err)
	}
	if _, err := c.invoke(warmCtx, "StudentInformation", StudentRequestXML("S0001")); err != nil {
		warmCancel()
		t.Fatalf("warm read: %v", err)
	}
	warmCancel()

	eng := chaos.New(chaos.Config{
		Seed: seed,
		MTBF: 500 * time.Millisecond,
		MTTR: 125 * time.Millisecond,
	}, GroupTargets(c.group)...)
	runCtx, stopChaos := context.WithCancel(context.Background())
	chaosDone := make(chan struct{})
	go func() { eng.Run(runCtx); close(chaosDone) }()

	var (
		mu     sync.Mutex
		reads  int
		writes int
	)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			callCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			kctx := replog.ContextWithKey(callCtx, fmt.Sprintf("w-%06d", i))
			_, err := c.invoke(kctx, "UpdateStudent", []byte(fmt.Sprintf("w-%06d", i)))
			cancel()
			if err == nil {
				mu.Lock()
				writes++
				mu.Unlock()
			}
		}
	}()
	var readers sync.WaitGroup
	deadline := time.Now().Add(1500 * time.Millisecond)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for time.Now().Before(deadline) {
				callCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := c.invoke(callCtx, "StudentInformation", StudentRequestXML("S0001"))
				cancel()
				if err == nil {
					mu.Lock()
					reads++
					mu.Unlock()
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	stopChaos()
	<-chaosDone
	quiesceCtx, qCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer qCancel()
	if err := eng.Quiesce(quiesceCtx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	if v := c.checker.Violations(); len(v) > 0 {
		t.Errorf("staleness violations: %s", strings.Join(v, "; "))
	}
	if c.checker.Reads() == 0 {
		t.Error("no follower read was checked during the soak")
	}
	if reads == 0 {
		t.Error("no read succeeded during the soak")
	}
	crashes := eng.Counts().Get("crash")
	t.Logf("seed %d: crashes=%d reads=%d writes=%d checked=%d",
		seed, crashes, reads, writes, c.checker.Reads())
}
