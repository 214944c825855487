package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"

	"repro/internal/obs"
)

// countMetrics are the deterministic work counts read from the metrics
// snapshots the simulator already returns, summed over labels. A change
// that only makes the simulator faster leaves every one of them unchanged.
var countMetrics = []struct{ metric, counter string }{
	{"simtime.events", "simtime_events_total"},
	{"netsim.frames_sent", "netsim_frames_sent_total"},
	{"netsim.frames_dropped", "netsim_frames_dropped_total"},
	{"tcpsim.segments_sent", "tcpsim_segments_sent_total"},
	{"tcpsim.retransmits", "tcpsim_retransmits_total"},
	{"tcpsim.keepalive_probes", "tcpsim_keepalive_probes_total"},
	{"tcpsim.conns_opened", "tcpsim_conns_opened_total"},
	{"core.records_observed", "core_records_observed_total"},
	{"core.records_held", "core_records_held_total"},
	{"core.spoofed_sends", "core_spoofed_sends_total"},
	{"sniff.evicted_records", "sniff_retained_evicted_records_total"},
}

// counterSum adds a counter family's values over all label sets.
func counterSum(s obs.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range s.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// countsPerOp turns a snapshot covering ops operations into the per-op
// count metrics.
func countsPerOp(s obs.Snapshot, ops int) map[string]float64 {
	out := make(map[string]float64, len(countMetrics)+1)
	for _, c := range countMetrics {
		out[c.metric] = float64(counterSum(s, c.counter)) / float64(ops)
	}
	out["replay.accepted_per_injected"] = 0
	if inj := counterSum(s, "replay_injected_total"); inj > 0 {
		out["replay.accepted_per_injected"] = float64(counterSum(s, "replay_accepted_total")) / float64(inj)
	}
	return out
}

// digester hashes a workload's outputs.
type digester struct{ hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

// json hashes v's JSON encoding; every value hashed is plain data, so the
// encoding cannot fail.
func (d *digester) json(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	d.Write(data)
}

func (d *digester) sum() string { return hex.EncodeToString(d.Sum(nil))[:16] }
