package main

import "fmt"

// layerSpec names one per-layer metric. They carry no bound: they exist
// so a change to one layer can point at the number it moved.
type layerSpec struct {
	name   string
	unit   string
	better string
}

// perLayer is every metric a traced run reports, on every workload.
// README.md says which end-to-end metric each should move and where.
var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	out := []layerSpec{
		{"soap.http_roundtrip_us", "us", "lower"},
		{"soap.encode_us", "us", "lower"},
		{"soap.decode_us", "us", "lower"},
		{"soap.codec_allocs", "count", "lower"},
		{"core.service_invoke_p50_ms", "ms", "lower"},
		{"proxy.find_warm_us", "us", "lower"},
		{"proxy.match_cache_hit_ratio", "ratio", "higher"},
		{"proxy.translate_us", "us", "lower"},
		{"proxy.find_cold_ms", "ms", "lower"},
		{"proxy.invoke_group_ms", "ms", "lower"},
		{"proxy.rebinds_per_crash", "count", "lower"},
		{"ontology.match_signature_us", "us", "lower"},
		{"ontology.match_signature_allocs", "count", "lower"},
		{"ontology.reasoner_build_ms", "ms", "lower"},
		{"p2p.local_query_us", "us", "lower"},
		{"p2p.wildcard_query_us", "us", "lower"},
		{"p2p.publish_us", "us", "lower"},
		{"p2p.remote_get_ms", "ms", "lower"},
		{"p2p.adv_codec_us", "us", "lower"},
		{"p2p.adv_codec_allocs", "count", "lower"},
		{"p2p.discovery_index_hit_ratio", "ratio", "higher"},
		{"bpeer.codec_us", "us", "lower"},
		{"bpeer.codec_allocs", "count", "lower"},
		{"bpeer.handler_us", "us", "lower"},
		{"bpeer.journal_overhead_ms", "ms", "lower"},
		{"bpeer.follower_read_share", "ratio", "higher"},
		{"replog.local_cycle_us", "us", "lower"},
		{"replog.cycle_allocs", "count", "lower"},
		{"replog.apply_us", "us", "lower"},
		{"replog.msgs_per_write", "count", "lower"},
		{"replog.kb_per_write", "kB", "lower"},
		{"replog.live_entries_end", "count", "lower"},
		{"election.outage_ms", "ms", "lower"},
		{"election.detect_ms", "ms", "lower"},
		{"election.rebind_ms", "ms", "lower"},
		{"election.msgs_per_crash", "count", "lower"},
		{"simnet.delivery_late_p50_us", "us", "lower"},
		{"simnet.delivery_late_p90_us", "us", "lower"},
		{"simnet.tcp_send_us", "us", "lower"},
		{"simnet.tcp_dials_per_op", "count", "lower"},
		{"simnet.tcp_tw_start", "count", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.unattributed_pct", "%", "lower"},
		{"trace.client_edge_ms", "ms", "lower"},
		{"gen.lateness_p90_ms", "ms", "lower"},
		{"gen.backlog_max", "count", "lower"},
		{"client.latency_p99_ms", "ms", "lower"},
		{"client.latency_max_ms", "ms", "lower"},
		{"proc.cpu_ms_per_op", "ms", "lower"},
		{"proc.gc_cycles_per_kop", "count", "lower"},
		{"proc.heap_mb_end", "MB", "lower"},
		{"core.setup_retries", "count", "lower"},
	}
	for _, tag := range withOther(protoTags) {
		out = append(out,
			layerSpec{"simnet.msgs_per_op." + tag, "count", "lower"},
			layerSpec{"simnet.kb_per_op." + tag, "kB", "lower"})
	}
	for _, l := range withOther(spanLayers) {
		out = append(out, layerSpec{"trace.self_ms." + l, "ms", "lower"})
	}
	return out
}

// checkPerLayer fails a traced run that reports a metric the table does
// not name, misses one it does, or uses another unit.
func checkPerLayer(metrics []metric) error {
	got := map[string]string{}
	for _, m := range metrics {
		if _, dup := got[m.name]; dup {
			return fmt.Errorf("per-layer metric %s reported twice", m.name)
		}
		got[m.name] = m.unit
	}
	for _, s := range perLayer {
		unit, ok := got[s.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not reported", s.name)
		}
		if unit != s.unit {
			return fmt.Errorf("per-layer metric %s reported in %s, want %s", s.name, unit, s.unit)
		}
		delete(got, s.name)
	}
	for name := range got {
		return fmt.Errorf("per-layer metric %s is not in the table", name)
	}
	return nil
}
