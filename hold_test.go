package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sniff"
)

// homeDevices is BenchmarkSimulatedHomeHour's ten-device home.
var homeDevices = []string{"C1", "M1", "L2", "C2", "M3", "P2", "CM1", "K2", "T1", "SD1"}

// hijackedHome is a long hold: the ten-device home with the attacker
// bridging C1's hub session, and one device event every 15 sim-minutes,
// round-robin over the devices that report events, each walking its
// values so that every trigger is a genuine state change.
type hijackedHome struct {
	tb        *experiment.Testbed
	atk       *core.Attacker
	h         *core.Hijacker
	reporters []device.Profile
	step      int
	sent      map[string]int
	accepted0 map[string]int
}

const triggerEvery = 15 * time.Minute

func newHijackedHome(t testing.TB, seed int64) *hijackedHome {
	t.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: seed, Devices: homeDevices})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Hijack(atk, "C1")
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	hh := &hijackedHome{tb: tb, atk: atk, h: h, sent: map[string]int{}, accepted0: map[string]int{}}
	for _, l := range homeDevices {
		if p := tb.Profile(l); p.EventAttr != "" && len(p.EventValues) > 0 {
			hh.reporters = append(hh.reporters, p)
		}
		hh.accepted0[l] = tb.AcceptedEventCount(l)
	}
	return hh
}

// trigger fires the next scheduled device event.
func (hh *hijackedHome) trigger(t testing.TB) device.Profile {
	p := hh.reporters[hh.step%len(hh.reporters)]
	v := p.EventValues[(hh.step/len(hh.reporters))%len(p.EventValues)]
	hh.step++
	if err := hh.tb.Device(p.Label).TriggerEvent(p.EventAttr, v); err != nil {
		t.Fatalf("trigger %s: %v", p.Label, err)
	}
	hh.sent[p.Label]++
	return p
}

// hour simulates one sim-hour: four triggers, 15 sim-minutes apart.
func (hh *hijackedHome) hour(t testing.TB) {
	for q := 0; q < 4; q++ {
		hh.trigger(t)
		hh.tb.Clock.RunFor(triggerEvery)
	}
}

// TestHijackedHomeDayConserves runs one simulated day of a long hold and
// checks that nothing leaks: every frame put on a segment was delivered or
// dropped for a counted reason, every record the bridges held was released
// or is still queued, every trigger reached the cloud, nothing raised an
// alarm, and the attacker's always-on capture kept no record log while its
// flow table still answers.
func TestHijackedHomeDayConserves(t *testing.T) {
	hh := newHijackedHome(t, 7)
	tb := hh.tb

	// Hold the hub's upstream around every event of a device on C1's hub
	// (C1 itself and M1), well inside the cloud's timeouts.
	holding := false
	hh.h.SetRawPolicy(func(_ *core.Bridge, r core.RecordInfo) core.Decision {
		if holding && r.Dir == sniff.DirClientToServer {
			return core.Hold
		}
		return core.Forward
	})
	release := func() {
		holding = false
		for _, b := range hh.h.Bridges() {
			b.Release(sniff.DirClientToServer)
		}
	}
	owner := tb.SessionOwnerProfile("C1").Label
	for i := 0; i < 24*4; i++ {
		// The event's records reach the bridge only once the clock runs.
		p := hh.trigger(t)
		holding = tb.SessionOwnerProfile(p.Label).Label == owner
		tb.Clock.RunFor(5 * time.Second)
		release()
		tb.Clock.RunFor(triggerEvery - 5*time.Second)
	}
	// End mid-hold, so the law is checked with records still queued.
	holding = true
	for hh.reporters[hh.step%len(hh.reporters)].Label != "C1" {
		hh.step++
	}
	hh.trigger(t)
	tb.Clock.RunFor(time.Second)
	snap := quiesce(t, tb)

	queued := 0
	for _, d := range []sniff.Direction{sniff.DirClientToServer, sniff.DirServerToClient} {
		dir := obs.L("dir", d.String())
		pending := 0
		for _, b := range hh.h.Bridges() {
			pending += b.HeldCount(d)
		}
		queued += pending
		held, released := snap.Counter("core_records_held_total", dir), snap.Counter("core_records_released_total", dir)
		if held != released+uint64(pending) {
			t.Errorf("%s: held %d != released %d + queued %d", d, held, released, pending)
		}
	}
	if g := snap.Gauge("core_held_records"); g.Value != int64(queued) || queued == 0 {
		t.Errorf("core_held_records = %d, bridges queue %d (want equal and nonzero)", g.Value, queued)
	}
	if released := snap.Counter("core_records_released_total", obs.L("dir", "c2s")); released == 0 {
		t.Error("no hold was ever released; the day exercised nothing")
	}

	release()
	tb.Clock.RunFor(time.Minute)
	for _, l := range homeDevices {
		if got := tb.AcceptedEventCount(l) - hh.accepted0[l]; got != hh.sent[l] {
			t.Errorf("%s: cloud accepted %d of %d triggers", l, got, hh.sent[l])
		}
	}
	if n := tb.TotalAlarmCount(); n != 0 {
		t.Errorf("%d alarms raised", n)
	}

	capture := hh.atk.Capture
	if n := len(capture.Records()); n != 0 {
		t.Errorf("attacker capture logged %d records without Record", n)
	}
	answered := 0
	for _, f := range capture.Flows() {
		if _, ok := capture.StreamSeq(f, sniff.DirServerToClient); ok {
			answered++
		}
	}
	if answered == 0 {
		t.Error("capture flow table answers no StreamSeq")
	}
}

// quiesce steps the clock to the next instant with no frame in flight on
// any segment and returns the metrics there, failing unless
// netsim_frames_sent_total = delivered + Σdropped. A frame lost or counted
// twice would offset the sums for good, and the search would run out.
func quiesce(t *testing.T, tb *experiment.Testbed) obs.Snapshot {
	t.Helper()
	sum := func(s obs.Snapshot, name string) uint64 {
		var n uint64
		for _, c := range s.Counters {
			if c.Name == name {
				n += c.Value
			}
		}
		return n
	}
	for i := 0; i < 10_000; i++ {
		snap := tb.Metrics.Snapshot()
		sent := sum(snap, "netsim_frames_sent_total")
		accounted := sum(snap, "netsim_frames_delivered_total") + sum(snap, "netsim_frames_dropped_total")
		if sent == accounted && sent > 0 {
			return snap
		}
		if !tb.Clock.Step() {
			break
		}
	}
	t.Fatal("netsim: frames sent never equal delivered + dropped")
	return obs.Snapshot{}
}
