package main

import (
	"testing"
	"time"

	"whisper/internal/simnet"
	"whisper/internal/trace"
)

func TestPercentileIsNearestRankWithCountBeyond(t *testing.T) {
	var s sample
	for i := 10; i >= 1; i-- { // unsorted on purpose
		s.add(float64(i))
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 5, 5}, {90, 9, 1}, {99, 10, 0}, {100, 10, 0}, {1, 1, 9}} {
		got, beyond := s.percentile(c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	var empty sample
	if v, n := empty.percentile(90); v != 0 || n != 0 {
		t.Errorf("empty sample p90 = %v, %d", v, n)
	}
	if m := medianOf([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("medianOf even count = %v, want 2.5", m)
	}
	if d := relDiff(90, 110); d != 0.2 {
		t.Errorf("relDiff(90,110) = %v, want 0.2", d)
	}
}

func TestPerProtoSumsToTotal(t *testing.T) {
	before := map[string]simnet.ProtoStats{"pipe": {Messages: 10, Bytes: 1000}, "heartbeat": {Messages: 5, Bytes: 100}}
	after := map[string]simnet.ProtoStats{
		"pipe":      {Messages: 110, Bytes: 21000},
		"heartbeat": {Messages: 25, Bytes: 500},
		"gossip":    {Messages: 4, Bytes: 4000}, // a tag outside protoTags
	}
	msgs, kb := perProto(before, after, 10)
	if msgs["pipe"] != 10 || msgs["heartbeat"] != 2 || msgs["other"] != 0.4 {
		t.Errorf("msgs = %v", msgs)
	}
	if kb["pipe"] != 2 || kb["heartbeat"] != 0.04 || kb["other"] != 0.4 {
		t.Errorf("kb = %v", kb)
	}
	var sumMsgs, sumKB float64
	for _, v := range msgs {
		sumMsgs += v
	}
	for _, v := range kb {
		sumKB += v
	}
	m0, b0 := wireTotal(before)
	m1, b1 := wireTotal(after)
	if want := float64(m1-m0) / 10; sumMsgs != want {
		t.Errorf("per-proto msgs sum to %v, total is %v", sumMsgs, want)
	}
	if want := float64(b1-b0) / 1000 / 10; sumKB != want {
		t.Errorf("per-proto kB sum to %v, total is %v", sumKB, want)
	}
	for _, tag := range protoTags {
		if _, ok := msgs[tag]; !ok {
			t.Errorf("tag %s missing from the split", tag)
		}
	}
}

func TestFoldSpansSelfTimes(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(tr, id, parent, name string, from, to int) trace.SpanRecord {
		return trace.SpanRecord{TraceID: trace.ID(tr), SpanID: trace.ID(id), ParentID: trace.ID(parent), Name: name, Start: at(from), End: at(to)}
	}
	spans := []trace.SpanRecord{
		// One request: soap 0-20 > proxy.invoke 1-19 > call 2-18 >
		// bpeer.request 4-16 > two overlapping replicate legs 5-9, 7-11.
		span("t1", "a", "", "soap.StudentEnrollment", 0, 20),
		span("t1", "b", "a", "proxy.invoke", 1, 19),
		span("t1", "c", "b", "call", 2, 18),
		span("t1", "d", "c", "bpeer.request", 4, 16),
		span("t1", "e", "d", "replog.replicate", 5, 9),
		span("t1", "f", "d", "replog.replicate", 7, 11),
		span("t1", "g", "d", "mystery", 12, 13),
		// A trace with no request root (an election) and one outside
		// the window are ignored.
		span("t2", "x", "", "election.run", 3, 9),
		span("t3", "y", "", "soap.StudentEnrollment", 100, 120),
	}
	fold := foldSpans(spans, at(0), at(50))
	if fold.requests != 1 || fold.rootMS != 20 {
		t.Fatalf("requests %d rootMS %v, want 1 and 20", fold.requests, fold.rootMS)
	}
	want := map[string]float64{
		"soap": 2, "proxy.invoke": 2, "call": 4,
		"bpeer.request":    12 - 6 - 1, // children cover 5-11 (union) and 12-13
		"replog.replicate": 8, "other": 1,
	}
	for layer, ms := range want {
		if fold.selfMS[layer] != ms {
			t.Errorf("self time of %s = %v ms, want %v", layer, fold.selfMS[layer], ms)
		}
	}
	var sum float64
	for _, ms := range fold.selfMS {
		sum += ms
	}
	if sum != 20+2 { // the overlapping legs count their own time twice
		t.Errorf("self times sum to %v", sum)
	}
	if fold.count["replog.replicate"] != 2 {
		t.Errorf("replicate spans per request = %v, want 2", fold.count["replog.replicate"])
	}
}

func TestProcParsers(t *testing.T) {
	sockstat := "sockets: used 16\nTCP: inuse 4 orphan 0 tw 4089 alloc 4 mem 0\nUDP: inuse 0 mem 0\n"
	if got := parseSockstatTW(sockstat); got != 4089 {
		t.Errorf("tw = %d, want 4089", got)
	}
	snmp := "Ip: Forwarding DefaultTTL\nIp: 1 64\nTcp: RtoAlgorithm RtoMin ActiveOpens PassiveOpens\nTcp: 1 200 12345 678\n"
	if got := parseSNMP(snmp, "Tcp:", "ActiveOpens"); got != 12345 {
		t.Errorf("ActiveOpens = %d, want 12345", got)
	}
	if parseSockstatTW("garbage") != -1 || parseSNMP("garbage", "Tcp:", "ActiveOpens") != -1 {
		t.Error("unreadable input must report -1")
	}
}
