package experiment

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
)

// Session is one attack session, the shape every runner shares (Sections
// IV-C and VI-C): a testbed, the attacker joined to its WiFi, and the
// man-in-the-middle positions the attacker holds, one per session owner.
// Runners take the positions with Hijack before Start, then drive holds
// with Hold or HoldMax.
type Session struct {
	*Testbed
	// Attacker is nil in an attacker-free session (a Table III baseline
	// arm), which must not Hijack.
	Attacker *core.Attacker

	hijackers map[string]*core.Hijacker
}

// NewSession builds the testbed cfg describes and joins the attacker to
// its WiFi. Nothing connects until Start.
func NewSession(cfg TestbedConfig) (*Session, error) {
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		return nil, err
	}
	return &Session{Testbed: tb, Attacker: atk, hijackers: make(map[string]*core.Hijacker)}, nil
}

// Hijack installs the man in the middle on a device's session, or returns
// the one already installed on it: devices riding the same hub share
// their session owner's hijacker.
func (s *Session) Hijack(label string) (*core.Hijacker, error) {
	owner := s.SessionOwnerProfile(label).Label
	if h, ok := s.hijackers[owner]; ok {
		return h, nil
	}
	h, err := s.Testbed.Hijack(s.Attacker, label)
	if err != nil {
		return nil, err
	}
	s.hijackers[owner] = h
	return h, nil
}

// startHijacked builds a session for cfg, hijacks label's session and
// starts the home: the setup of the single-device runners. Once the
// testbed exists the session is returned even with an error, so the
// caller's deferred snapshot still sees what the run recorded.
func startHijacked(cfg TestbedConfig, label string) (*Session, *core.Hijacker, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	h, err := s.Hijack(label)
	if err != nil {
		return s, nil, err
	}
	s.Start()
	return s, h, nil
}

// snapshot is the session's metrics snapshot; the zero snapshot when no
// session was built.
func (s *Session) snapshot() obs.Snapshot {
	if s == nil {
		return obs.Snapshot{}
	}
	return s.Metrics.Snapshot()
}

// holdSettle is how long a hold trial runs on after the release, so the
// released message is delivered before the trial's outcome is read.
const holdSettle = 5 * time.Second

// HoldResult is the outcome of one hold trial.
type HoldResult struct {
	// Held is how long the op held its record; zero unless Released.
	Held time.Duration
	// Released reports whether the op released within the trial's bound.
	Released bool
	// Alarms counts the server-side alarms raised during the trial.
	Alarms int
	// Accepted counts the origin's events the servers accepted during the
	// trial.
	Accepted int
}

// Hold runs one hold trial with op armed: it fires trigger, steps the
// simulation until op releases or bound elapses, runs on for delivery to
// settle and reports what changed. Judging the result (and the error text
// for a hold that never released) is the caller's.
func (s *Session) Hold(op *core.DelayOp, origin string, trigger func() error, bound time.Duration) (HoldResult, error) {
	return s.hold(op, origin, trigger, func(r *HoldResult) {
		s.Clock.StepUntil(s.Clock.Now()+bound, func() bool { return r.Released })
		s.Clock.RunFor(holdSettle)
	})
}

// HoldMax runs the paper's maximum stealthy delay (Section IV-C) as one
// Hold: it holds the lab device's next event, or with command set its
// next command, until margin before the timeout the armed predictor
// expects. A message no timeout bounds is held for unbounded instead, and
// bounded reports which of the two ran.
func (s *Session) HoldMax(h *core.Hijacker, lab *core.Lab, command bool, margin, unbounded, bound time.Duration) (r HoldResult, bounded bool, err error) {
	m := h.Predictor().Measured()
	origin, trigger := lab.EventOrigin, lab.TriggerEvent
	_, _, bounded = m.EventWindow()
	maxDelay, delay := h.MaxEDelay, h.EDelay
	if command {
		origin, trigger = lab.CommandOrigin, lab.TriggerCommand
		_, _, bounded = m.CommandWindow()
		maxDelay, delay = h.MaxCDelay, h.CDelay
	}
	arm, hold := delay, unbounded
	if bounded {
		arm, hold = maxDelay, margin
	}
	r, err = s.Hold(arm(origin, hold), origin, trigger, bound)
	return r, bounded, err
}

// hold is Hold with the simulation driven by run instead of a step-until
// loop.
func (s *Session) hold(op *core.DelayOp, origin string, trigger func() error, run func(*HoldResult)) (HoldResult, error) {
	var r HoldResult
	op.OnReleased = func(d time.Duration) { r.Held, r.Released = d, true }
	alarms, accepted := s.TotalAlarmCount(), s.AcceptedEventCount(origin)
	if err := trigger(); err != nil {
		return HoldResult{}, err
	}
	run(&r)
	r.Alarms = s.TotalAlarmCount() - alarms
	r.Accepted = s.AcceptedEventCount(origin) - accepted
	return r, nil
}

// Replay re-injects the captured event record records[idx] from origin.
// With raw set it first re-sends the verbatim record on h's live session;
// if that yields no accepted duplicate and app is set, it replays the
// readable session prefix from a fresh attacker connection to h's server.
// It reports which path, if any, landed an accepted duplicate.
func (s *Session) Replay(eng *replay.Engine, h *core.Hijacker, origin string, records []sniff.RecordMeta, idx int, raw, app bool) (rawOK, appOK bool) {
	// try injects, lets delivery settle and reports an accepted duplicate.
	try := func(inject func() error) bool {
		before := s.AcceptedEventCount(origin)
		if inject() != nil {
			return false
		}
		s.Clock.RunFor(holdSettle)
		ok := s.AcceptedEventCount(origin) > before
		eng.ReportOutcome(origin, ok)
		return ok
	}
	if raw {
		rawOK = try(func() error { return eng.RawReplay(h, records[idx]) })
	}
	if !rawOK && app {
		target := h.Target()
		server := tcpsim.Endpoint{Addr: target.ServerAddr, Port: target.ServerPort}
		appOK = try(func() error {
			_, err := eng.AppReplay(server, replay.SessionPrefix(records, idx))
			return err
		})
	}
	return rawOK, appOK
}

// MeasuredFromProfile converts ground truth into the attacker's measured
// form — what an attacker who already profiled this model (the paper's
// one-time per-model effort) would arm its predictor with.
// TestProfilerRecoversDeployedProfiles checks that the profiler's own
// estimate matches it for the models and hardenings this stands in for.
func MeasuredFromProfile(p device.Profile) core.Measured {
	return core.Measured{
		Model:             p.Label,
		HasKeepAlive:      p.KeepAlivePeriod > 0,
		KeepAlivePeriod:   p.KeepAlivePeriod,
		Pattern:           p.KeepAlivePattern,
		KeepAliveTimeout:  p.KeepAliveTimeout,
		EventTimeout:      p.EventTimeout,
		CommandTimeout:    p.CommandTimeout,
		ServerIdleTimeout: p.ServerIdleTimeout,
		OnDemand:          p.Transport == device.TransportHTTPOnDemand,
	}
}

// NewAttacker joins an attacker host to the home WiFi at AttackerAddr —
// the paper's "one controlled WiFi device". The attacker reports into the
// testbed's metrics registry. Runners get theirs from NewSession.
func (tb *Testbed) NewAttacker() (*core.Attacker, error) {
	atk, err := core.NewAttacker(tb.Net, tb.LAN, "attacker", AttackerAddr.String()+"/24", GatewayAddr, tb.cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	atk.TCP.Instrument(tb.Metrics, "attacker")
	atk.Instrument(tb.Metrics)
	return atk, nil
}

// HijackTarget resolves the man-in-the-middle coordinates for a device:
// the session owner's LAN address, its server's address and port, and the
// fingerprint model. Works for cloud and local deployments alike.
func (tb *Testbed) HijackTarget(label string) (core.Target, error) {
	p, ok := tb.lookup(label)
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: unknown device %q", label)
	}
	owner, err := tb.sessionProfile(p)
	if err != nil {
		return core.Target{}, err
	}
	devAddr, ok := tb.DeviceAddrs[owner.Label]
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: %s not deployed", owner.Label)
	}
	var port uint16
	var serverKey string
	switch owner.Transport {
	case device.TransportMQTT:
		port, serverKey = cloud.MQTTPort, owner.ServerDomain
	case device.TransportHTTPLong, device.TransportHTTPOnDemand:
		port, serverKey = cloud.HTTPSPort, owner.ServerDomain
	case device.TransportHAP:
		port, serverKey = cloud.HAPPort, "local"
	default:
		return core.Target{}, fmt.Errorf("experiment: %s has no hijackable session", label)
	}
	srvAddr, ok := tb.ServerAddrs[serverKey]
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: no server address for %q", serverKey)
	}
	return core.Target{
		DeviceAddr:  devAddr,
		ServerAddr:  srvAddr,
		ServerPort:  port,
		GatewayAddr: GatewayAddr,
		Model:       owner.Label,
	}, nil
}

// Hijack resolves the target for the device and installs atk's man in the
// middle on it. It must run before the device connects for a silent
// takeover; see core.Hijacker for mid-session options. Session.Hijack
// wraps it with the one-hijacker-per-session-owner bookkeeping.
func (tb *Testbed) Hijack(atk *core.Attacker, label string) (*core.Hijacker, error) {
	target, err := tb.HijackTarget(label)
	if err != nil {
		return nil, err
	}
	cl := sniff.CatalogClassifier()
	h := core.NewHijacker(atk, target, cl)
	if err := h.Install(nil); err != nil {
		return nil, err
	}
	// Let the poisoning exchanges settle.
	tb.Clock.RunFor(500 * time.Millisecond)
	return h, nil
}
