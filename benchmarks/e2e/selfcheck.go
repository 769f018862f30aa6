package main

import (
	"fmt"
	"os"
	"time"
)

// runSelfcheck runs every workload twice on `seed` and once on seed+1
// and prints each end-to-end metric's spread against its bound. It
// fails (exit 1) when a same-seed pair differs by more than half the
// bound: two sets of runs of one commit would then disagree by the
// bound often enough to make the gate meaningless.
func runSelfcheck(seed int64, window time.Duration) int {
	status := 0
	for i := range workloads {
		w := &workloads[i]
		var runs [3]*runResult
		for r, s := range []int64{seed, seed, seed + 1} {
			res, err := runUntraced(w, s, window)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			runs[r] = res
		}
		fmt.Printf("%s (seeds %d, %d, %d)\n", w.name, seed, seed, seed+1)
		fmt.Printf("  %-18s %12s %12s %12s %9s %9s %7s\n", "metric", "run a", "run b", "other seed", "a~b", "a~other", "bound")
		for _, spec := range endToEnd {
			a, b, c := runs[0].value(spec.name), runs[1].value(spec.name), runs[2].value(spec.name)
			same, other := relDiff(a, b), relDiff(a, c)
			verdict := "ok"
			if same > spec.bound/2 {
				verdict = "MISS"
				status = 1
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %6.1f%%  %s\n",
				spec.name, a, b, c, same*100, other*100, spec.bound*100, verdict)
		}
	}
	return status
}
