package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sniff"
)

// ModelTally accumulates campaign outcomes for one device model.
type ModelTally struct {
	Model        string  `json:"model"`
	Trials       int     `json:"trials"`
	Successes    int     `json:"successes"`
	DelaySumSecs float64 `json:"delaySumSecs"`
	MaxDelaySecs float64 `json:"maxDelaySecs"`
}

func (t *ModelTally) add(o ModelTally) {
	t.Trials += o.Trials
	t.Successes += o.Successes
	t.DelaySumSecs += o.DelaySumSecs
	if o.MaxDelaySecs > t.MaxDelaySecs {
		t.MaxDelaySecs = o.MaxDelaySecs
	}
}

// homeResult is the compact outcome of one home: per-model tallies plus
// the testbed's metrics snapshot. The testbed itself is discarded — this
// is what keeps a million-home campaign within bounded memory.
type homeResult struct {
	index    int
	err      error
	noTarget bool
	alarms   int
	tallies  map[string]*ModelTally
	snapshot obs.Snapshot
}

// runHome builds the home's testbed on demand, runs the campaign's attack
// against its targets and returns the compact result. The home simulation
// is single-threaded and owns all its state, so many runHome calls can
// proceed concurrently on independent homes.
func runHome(spec Spec, home HomeSpec) (res homeResult) {
	res = homeResult{index: home.Index, tallies: make(map[string]*ModelTally)}

	targets := selectTargets(spec, home)
	if len(targets) == 0 {
		res.noTarget = true
		return res
	}

	// Per-home traces would dominate the merged snapshot and their
	// concatenation order is not worker-count independent; campaigns run
	// traceless (TraceCap < 0 disables the ring before any component is
	// instrumented, so nothing ever writes an event).
	cfg := experiment.TestbedConfig{
		Seed:       home.Seed,
		Devices:    home.Devices,
		LANLatency: home.LANLatency,
		WANLatency: home.WANLatency,
		Jitter:     home.LinkJitter,
		Overrides:  home.Overrides,
		TraceCap:   -1,
	}
	s, err := experiment.NewSession(cfg)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		res.alarms = s.TotalAlarmCount()
		s.Metrics.Counter("fleet_alarms_total").Add(uint64(res.alarms))
		res.snapshot = s.Metrics.Snapshot()
	}()

	for _, r := range home.Rules {
		if err := s.InstallRule(r); err != nil {
			res.err = err
			return res
		}
	}
	if spec.Attack == AttackReplay && spec.Replay != nil {
		s.Attacker.Capture.Record(spec.Replay.RetainBytes)
	}
	// Take the targets' man-in-the-middle positions before the home connects.
	for _, label := range targets {
		if _, err := s.Hijack(label); err != nil {
			res.err = err
			return res
		}
	}
	s.Start()

	for _, label := range targets {
		if err := attackTarget(s, spec, label, res.tallies); err != nil {
			res.err = fmt.Errorf("home %d target %s: %w", home.Index, label, err)
			return res
		}
	}
	return res
}

// selectTargets picks the campaign's targets in deployment order.
func selectTargets(spec Spec, home HomeSpec) []string {
	byLabel := device.Index()
	var out []string
	for _, l := range home.Devices {
		p := byLabel[l]
		if !spec.Targets.matches(p.Label, p.Class) {
			continue
		}
		if spec.Attack == AttackCDelay && p.CommandAttr == "" {
			continue
		}
		if spec.Attack == AttackOffline {
			if owner, err := device.SessionProfile(p, byLabel); err != nil || owner.Transport == device.TransportHTTPOnDemand {
				continue
			}
		}
		if p.EventAttr == "" || len(p.EventValues) == 0 {
			continue
		}
		out = append(out, l)
		if len(out) >= spec.Targets.PerHome {
			break
		}
	}
	return out
}

// attackTarget runs the spec's trials against one device, recording
// outcomes into tallies and the testbed's metrics registry.
func attackTarget(s *experiment.Session, spec Spec, label string, tallies map[string]*ModelTally) error {
	h, err := s.Hijack(label)
	if err != nil {
		return err
	}
	m := experiment.MeasuredFromProfile(s.SessionOwnerProfile(label))
	h.ArmPredictor(m)
	lab, err := s.NewLab(h, label)
	if err != nil {
		return err
	}
	tally, ok := tallies[label]
	if !ok {
		tally = &ModelTally{Model: label}
		tallies[label] = tally
	}
	reg := s.Metrics
	delayHist := reg.Histogram("fleet_delay_seconds", obs.DurationBuckets, obs.L("model", label))
	trialCtr := reg.Counter("fleet_trials_total", obs.L("model", label))
	successCtr := reg.Counter("fleet_trials_success", obs.L("model", label))

	for trial := 0; trial < spec.Trials; trial++ {
		var achieved time.Duration
		var success bool
		var err error
		switch spec.Attack {
		case AttackOffline:
			achieved, success, err = offlineTrial(s, h, spec)
		case AttackReplay:
			achieved, success, err = replayTrial(s, h, lab, spec, label)
		default:
			achieved, success, err = delayTrial(s, h, lab, spec, m, label)
		}
		if err != nil {
			return err
		}
		tally.Trials++
		trialCtr.Inc()
		if success {
			tally.Successes++
			successCtr.Inc()
		}
		secs := achieved.Seconds()
		tally.DelaySumSecs += secs
		if secs > tally.MaxDelaySecs {
			tally.MaxDelaySecs = secs
		}
		delayHist.Observe(secs)
		// Inter-trial recovery lets sessions and keep-alive schedules
		// settle before the next hold.
		s.Clock.RunFor(10 * time.Second)
	}
	return nil
}

// delayTrial runs one maximum-stealthy delay: hold the target's next
// event (or command) to the margin before the predicted timeout, release,
// and check delivery plus stealth. The bound guards against an op that
// never matches (e.g. a lost trigger).
func delayTrial(s *experiment.Session, h *core.Hijacker, lab *core.Lab, spec Spec, m core.Measured, label string) (time.Duration, bool, error) {
	command := spec.Attack == AttackCDelay
	if command && lab.TriggerCommand == nil {
		return 0, false, fmt.Errorf("fleet: %s takes no commands", label)
	}
	r, _, err := s.HoldMax(h, lab, command, spec.Margin(), spec.Hold(), simTimeBound(spec, m))
	if err != nil {
		return 0, false, err
	}
	if !r.Released {
		return 0, false, fmt.Errorf("fleet: delay never released")
	}
	success := r.Alarms == 0 && (command || r.Accepted > 0)
	return r.Held, success, nil
}

// replayTrial runs one record-and-replay attempt: trigger a genuine
// event, find its retained record in the attacker's capture, and
// re-inject it per the spec's mode. Success means the duplicate was
// accepted by the automation backend; the achieved delay is zero because
// a replay is not a hold. A trial whose event record was not retained
// (eviction, or an out-of-order capture) simply fails — replay coverage
// is itself a campaign observable, not an error.
func replayTrial(s *experiment.Session, h *core.Hijacker, lab *core.Lab, spec Spec, label string) (time.Duration, bool, error) {
	eng := replay.NewEngine(s.Attacker)
	eng.Instrument(s.Metrics)
	origin := lab.EventOrigin

	if err := lab.TriggerEvent(); err != nil {
		return 0, false, err
	}
	s.Clock.RunFor(3 * time.Second)

	records := s.Attacker.Capture.Records()
	owner := s.SessionOwnerProfile(label).Label
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), owner, origin, records)
	if !ok {
		return 0, false, nil
	}

	mode := ReplayModeAuto
	if spec.Replay != nil && spec.Replay.Mode != "" {
		mode = spec.Replay.Mode
	}
	rawOK, appOK := s.Replay(eng, h, origin, records, idx,
		mode == ReplayModeRaw || mode == ReplayModeAuto,
		mode == ReplayModeApp || mode == ReplayModeAuto)
	return 0, rawOK || appOK, nil
}

// simTimeBound bounds one trial's simulated time: the widest possible
// window plus slack.
func simTimeBound(spec Spec, m core.Measured) time.Duration {
	bound := spec.Hold()
	if _, max, ok := m.EventWindow(); ok && max > bound {
		bound = max
	}
	if _, max, ok := m.CommandWindow(); ok && max > bound {
		bound = max
	}
	return bound + 10*time.Minute
}

// offlineTrial blackholes the session's device-to-server direction for the
// spec's hold, keeping the server-side connection open (Finding 2), and
// reports whether the servers stayed silent.
func offlineTrial(s *experiment.Session, h *core.Hijacker, spec Spec) (time.Duration, bool, error) {
	b, ok := h.CurrentBridge()
	if !ok {
		return 0, false, fmt.Errorf("fleet: no live bridge for offline hold")
	}
	b.HoldDeviceClose = true
	op := h.DelayKeepAlive(0)
	alarmsBefore := s.TotalAlarmCount()
	s.Clock.RunFor(spec.Hold())
	success := s.TotalAlarmCount() == alarmsBefore
	op.Release()
	b.HoldDeviceClose = false
	s.Clock.RunFor(10 * time.Second)
	return spec.Hold(), success, nil
}
