package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// simnet/tcp.go dials per Send, so every message leaves a TIME_WAIT
// socket for a minute: one run of the real-socket workload leaves about
// 8 000, and runs made back to back hold the table near 15 000. The
// guards keep the workload from starting on a table another process
// has nearly filled (the kernel caps it at 65 536) and prove afterwards
// that the run stayed inside its dial budget.
const (
	timeWaitCeiling  = 30000
	timeWaitPatience = 30 * time.Second
	// dialBudgetPerSecond caps connections opened per second of window.
	dialBudgetPerSecond = 300
)

// sockstatTimeWait reads the kernel's count of TIME_WAIT sockets ("tw"
// on the TCP line of /proc/net/sockstat); -1 when unreadable.
func sockstatTimeWait() int64 {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	return parseSockstatTW(string(data))
}

func parseSockstatTW(data string) int64 {
	for _, line := range strings.Split(data, "\n") {
		if !strings.HasPrefix(line, "TCP:") {
			continue
		}
		f := strings.Fields(line)
		for i := 1; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				n, err := strconv.ParseInt(f[i+1], 10, 64)
				if err != nil {
					return -1
				}
				return n
			}
		}
	}
	return -1
}

// tcpActiveOpens reads the kernel's count of connections this host has
// opened (Tcp: ActiveOpens in /proc/net/snmp); -1 when unreadable.
func tcpActiveOpens() int64 {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	return parseSNMP(string(data), "Tcp:", "ActiveOpens")
}

func parseSNMP(data, table, field string) int64 {
	var header []string
	for _, line := range strings.Split(data, "\n") {
		if !strings.HasPrefix(line, table) {
			continue
		}
		f := strings.Fields(line)
		if header == nil {
			header = f
			continue
		}
		for i, h := range header {
			if h == field && i < len(f) {
				n, err := strconv.ParseInt(f[i], 10, 64)
				if err != nil {
					return -1
				}
				return n
			}
		}
		return -1
	}
	return -1
}

// waitTimeWait blocks (outside every timed section) until the TIME_WAIT
// table is under the ceiling, for at most timeWaitPatience.
func waitTimeWait() (tw int64, waited time.Duration) {
	start := time.Now()
	for {
		tw = sockstatTimeWait()
		if tw < timeWaitCeiling || time.Since(start) > timeWaitPatience {
			return tw, time.Since(start)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// checkDialBudget fails the run when the window opened more
// connections than the workload was sized for.
func checkDialBudget(dials int64, win *window) error {
	if dials < 0 {
		return nil // /proc/net/snmp unreadable: nothing to assert
	}
	budget := int64(win.res.load.elapsed.Seconds() * dialBudgetPerSecond)
	if dials > budget {
		return fmt.Errorf("window opened %d TCP connections, budget %d", dials, budget)
	}
	return nil
}
