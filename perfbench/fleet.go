package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// campaignHomes is the population of one measured campaign. A run repeats
// campaigns over successive seeds until its time is up; the first one is
// the fixed unit behind the digest and the counts.
const campaignHomes = 512

// fleetBench is the fleet-edelay workload: the default event-delay
// campaign with one worker, fresh testbeds and no checkpoint — the
// phantomlab fleet defaults.
type fleetBench struct {
	seed int64
	spec fleet.Spec
	// results holds the untraced campaigns' results by campaign number:
	// the reference the traced pipeline must reproduce.
	results map[int]fleet.Result
}

func (b *fleetBench) campaignSeed(k int) int64 { return b.seed*1_000_003 + int64(k) }

func (b *fleetBench) setup(seed int64) error {
	b.seed = seed
	b.spec = fleet.DefaultSpec()
	b.results = make(map[int]fleet.Result)
	device.Index()
	// Warm-up on a seed no measured campaign uses.
	_, err := fleet.Campaign{Spec: b.spec, Homes: 48, Workers: 1, Seed: -seed - 1}.Run()
	return err
}

func (b *fleetBench) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{named: map[string]metric{}, timings: map[string]timing{}}
	var trials, successes int
	allocBefore := totalAlloc()
	start, cpuStart := time.Now(), cpuTime()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		var res fleet.Result
		var err error
		if tr == nil {
			res, err = b.campaign(k, p)
		} else {
			res, err = b.mirror(k, tr, p)
		}
		if err != nil {
			return nil, err
		}
		p.units += res.Homes
		p.attempted += res.Homes
		p.failed += res.HomesFailed
		trials += res.TotalTrials
		successes += res.TotalSuccesses
		p.events += counterSum(res.Metrics, "simtime_events_total")
		if res.Alarms != 0 || res.HomesFailed != 0 {
			p.check(fmt.Sprintf("campaign %d: no failed homes, no alarms", k), false,
				"homesFailed %d alarms %d errors %v", res.HomesFailed, res.Alarms, res.Errors)
		}
		if k == 0 {
			p.digest = fleetDigest(res)
			p.counts = countsPerOp(res.Metrics, res.Homes)
		}
	}
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpuStart
	p.alloc = totalAlloc() - allocBefore
	rate := float64(p.units) / p.elapsed.Seconds()
	p.check("homes failed or alarmed", p.failed == 0, "%d of %d homes failed", p.failed, p.attempted)
	p.named["homes_per_s"] = metric{rate, "1/s"}
	p.named["alloc_kb_per_home"] = metric{float64(p.alloc) / float64(p.units) / 1024, "kB"}
	// success-frac is an outcome of the attack, not a failure of the run.
	p.named["success_frac"] = metric{float64(successes) / float64(trials), "frac"}
	p.timings["home_cpu_ms"] = summarize(p.opMS, "ms")
	return p, nil
}

// campaign runs campaign k through fleet.Campaign.Run. Shards complete in
// order on one worker, so the CPU time between OnShard calls is one
// shard's; the per-home samples are shard CPU time over shard homes.
func (b *fleetBench) campaign(k int, p *phase) (fleet.Result, error) {
	last := cpuTime()
	c := fleet.Campaign{Spec: b.spec, Homes: campaignHomes, Workers: 1, Seed: b.campaignSeed(k)}
	c.OnShard = func(s fleet.ShardResult, _, _ int) {
		now := cpuTime()
		p.opMS = append(p.opMS, ms(now-last)/float64(s.Homes))
		last = now
	}
	res, err := c.Run()
	if err != nil {
		return res, fmt.Errorf("campaign %d: %w", k, err)
	}
	b.results[k] = res
	return res, nil
}

// mirrorOutcome is the part of a fleet.Result the traced pipeline rebuilds.
type mirrorOutcome struct {
	homesFailed int
	alarms      int
	errors      []string
	tallies     map[string]*fleet.ModelTally
}

// mirror runs campaign k's homes through the same public calls
// fleet.Campaign.Run makes for each home — generate, build, hijack, start,
// trial, fold — timing each as a span. Folding per-home snapshots per
// shard and shard states per campaign reproduces Campaign.Run's merge, so
// the merged metrics must equal the untraced run's byte for byte.
func (b *fleetBench) mirror(k int, tr *tracer, p *phase) (fleet.Result, error) {
	pc := fleet.PopulationConfig{
		Seed:         b.campaignSeed(k),
		TimingJitter: b.spec.TimingJitter,
		RulesPerHome: b.spec.RulesPerHome,
	}
	out := mirrorOutcome{tallies: make(map[string]*fleet.ModelTally)}
	camp := obs.NewAccumulator()
	for first := 0; first < campaignHomes; first += fleet.DefaultShardSize {
		shard := obs.NewAccumulator()
		for i := first; i < first+fleet.DefaultShardSize && i < campaignHomes; i++ {
			b.traceHome(tr, pc, i, k*campaignHomes+i, shard, &out)
		}
		camp.Add(shard.State())
	}
	res := fleet.Result{Homes: campaignHomes, HomesFailed: out.homesFailed, Alarms: out.alarms,
		Errors: out.errors, Metrics: camp.State()}
	for _, label := range sortedKeys(out.tallies) {
		t := out.tallies[label]
		res.TotalTrials += t.Trials
		res.TotalSuccesses += t.Successes
		res.PerModel = append(res.PerModel, fleet.ModelSummary{Model: label,
			Trials: t.Trials, Successes: t.Successes, MaxDelaySecs: t.MaxDelaySecs})
	}
	if ref, ok := b.results[k]; ok {
		ok, detail := sameCampaign(ref, res)
		p.check(fmt.Sprintf("campaign %d: traced pipeline reproduces Campaign.Run", k), ok, "%s", detail)
	}
	return res, nil
}

// fleetDigest hashes the campaign outputs the traced pipeline rebuilds
// exactly: the merged metrics snapshot, failures, alarms and each model's
// trial counts and longest delay. (Mean delays are summed exactly by the
// campaign engine and in plain float64 by the traced pipeline, so they
// are left out.)
func fleetDigest(res fleet.Result) string {
	type model struct {
		Model           string
		Trials, Success int
		MaxDelaySecs    float64
	}
	models := make([]model, len(res.PerModel))
	for i, m := range res.PerModel {
		models[i] = model{m.Model, m.Trials, m.Successes, m.MaxDelaySecs}
	}
	dg := newDigester()
	dg.json(res.Metrics)
	dg.json(models)
	dg.json([]int{res.HomesFailed, res.Alarms})
	return dg.sum()
}

// sameCampaign compares the traced pipeline's campaign with the untraced
// reference, naming the first counter that differs.
func sameCampaign(ref, got fleet.Result) (bool, string) {
	refC, gotC := counterMap(ref.Metrics), counterMap(got.Metrics)
	for _, k := range sortedKeys(refC) {
		if v, ok := gotC[k]; !ok || v != refC[k] {
			return false, fmt.Sprintf("counter %s: Campaign.Run %d, traced %d", k, refC[k], v)
		}
	}
	for _, k := range sortedKeys(gotC) {
		if _, ok := refC[k]; !ok {
			return false, fmt.Sprintf("counter %s only in the traced run", k)
		}
	}
	if fleetDigest(ref) != fleetDigest(got) {
		return false, "counters agree but histograms, gauges, tallies, failures or alarms differ"
	}
	return true, fmt.Sprintf("%d counters, %d model tallies and the metrics snapshot equal", len(refC), len(ref.PerModel))
}

func counterMap(s obs.Snapshot) map[string]uint64 {
	m := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		m[counterKey(c)] = c.Value
	}
	return m
}

func counterKey(c obs.CounterValue) string {
	k := c.Name
	for _, l := range c.Labels {
		k += "," + l.Key + "=" + l.Value
	}
	return k
}

// traceHome is one home of the traced pipeline, in the order and with the
// metric side effects of the campaign engine's per-home run.
func (b *fleetBench) traceHome(tr *tracer, pc fleet.PopulationConfig, index, unit int, shard *obs.Accumulator, out *mirrorOutcome) {
	hs := tr.begin("fleet.home", unit)
	defer tr.end(hs)

	s := tr.begin("fleet.generate_home", unit)
	home := fleet.GenerateHome(pc, index)
	tr.end(s)
	fail := func(err error) {
		out.homesFailed++
		out.errors = append(out.errors, fmt.Sprintf("home %d: %v", index, err))
	}
	targets := selectTargets(b.spec, home)
	if len(targets) == 0 {
		shard.Add(obs.Snapshot{})
		return
	}

	s = tr.begin("experiment.build", unit)
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:       home.Seed,
		Devices:    home.Devices,
		LANLatency: home.LANLatency,
		WANLatency: home.WANLatency,
		Jitter:     home.LinkJitter,
		Overrides:  home.Overrides,
		TraceCap:   -1,
	})
	if err != nil {
		tr.end(s)
		fail(err)
		shard.Add(obs.Snapshot{})
		return
	}
	for _, r := range home.Rules {
		if err = tb.InstallRule(r); err != nil {
			break
		}
	}
	tr.end(s)
	if err == nil {
		err = b.attackHome(tr, tb, targets, unit, out)
	}

	s = tr.begin("obs.fold", unit)
	alarms := tb.TotalAlarmCount()
	tb.Metrics.Counter("fleet_alarms_total").Add(uint64(alarms))
	shard.Add(tb.Metrics.Snapshot())
	tr.end(s)
	out.alarms += alarms
	if err != nil {
		fail(err)
	}
}

func (b *fleetBench) attackHome(tr *tracer, tb *experiment.Testbed, targets []string, unit int, out *mirrorOutcome) error {
	s := tr.begin("core.hijack", unit)
	atk, err := tb.NewAttacker()
	hijackers := make(map[string]*core.Hijacker)
	for _, label := range targets {
		if err != nil {
			break
		}
		owner := tb.SessionOwnerProfile(label).Label
		if _, ok := hijackers[owner]; !ok {
			hijackers[owner], err = tb.Hijack(atk, label)
		}
	}
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("experiment.start", unit)
	tb.Start()
	tr.end(s)

	for _, label := range targets {
		h := hijackers[tb.SessionOwnerProfile(label).Label]
		if err := b.attackTarget(tr, tb, h, label, unit, out); err != nil {
			return fmt.Errorf("target %s: %w", label, err)
		}
	}
	return nil
}

// attackTarget runs the spec's event-delay trials against one device.
func (b *fleetBench) attackTarget(tr *tracer, tb *experiment.Testbed, h *core.Hijacker, label string, unit int, out *mirrorOutcome) error {
	s := tr.begin("core.trial", unit)
	defer tr.end(s)
	m := experiment.MeasuredFromProfile(tb.SessionOwnerProfile(label))
	h.ArmPredictor(m)
	lab, err := tb.NewLab(h, label)
	if err != nil {
		return err
	}
	tally, ok := out.tallies[label]
	if !ok {
		tally = &fleet.ModelTally{Model: label}
		out.tallies[label] = tally
	}
	reg := tb.Metrics
	delayHist := reg.Histogram("fleet_delay_seconds", obs.DurationBuckets, obs.L("model", label))
	trialCtr := reg.Counter("fleet_trials_total", obs.L("model", label))
	successCtr := reg.Counter("fleet_trials_success", obs.L("model", label))
	events := reg.Counter("simtime_events_total")
	spec := b.spec

	for trial := 0; trial < spec.Trials; trial++ {
		_, _, bounded := m.EventWindow()
		var op *core.DelayOp
		if bounded {
			op = h.MaxEDelay(lab.EventOrigin, spec.Margin())
		} else {
			op = h.EDelay(lab.EventOrigin, spec.Hold())
		}
		var achieved time.Duration
		released := false
		op.OnReleased = func(d time.Duration) { achieved, released = d, true }
		alarmsBefore := tb.TotalAlarmCount()
		acceptedBefore := tb.AcceptedEventCount(lab.EventOrigin)

		t := tr.begin("device.trigger", unit)
		err := lab.TriggerEvent()
		tr.end(t)
		if err != nil {
			return err
		}
		deadline := tb.Clock.Now() + simTimeBound(spec, m)
		runClock(tr, events, unit, func() {
			for !released && tb.Clock.Now() < deadline {
				if next, ok := tb.Clock.NextEventAt(); !ok || next > deadline {
					tb.Clock.RunUntil(deadline)
					break
				}
				tb.Clock.Step()
			}
			tb.Clock.RunFor(5 * time.Second)
		})
		if !released {
			return fmt.Errorf("delay never released")
		}
		success := tb.TotalAlarmCount() == alarmsBefore && tb.AcceptedEventCount(lab.EventOrigin) > acceptedBefore

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
		runClock(tr, events, unit, func() { tb.Clock.RunFor(10 * time.Second) })
	}
	return nil
}

// runClock times a call that advances the simulated clock as a
// simtime.run span, recording how many events it executed.
func runClock(tr *tracer, events *obs.Counter, unit int, fn func()) {
	if tr == nil {
		fn()
		return
	}
	before := events.Value()
	s := tr.begin("simtime.run", unit)
	fn()
	tr.endEvents(s, events.Value()-before)
}

// selectTargets picks the campaign's event-delay targets in deployment
// order, as the campaign engine does.
func selectTargets(spec fleet.Spec, home fleet.HomeSpec) []string {
	byLabel := device.Index()
	var out []string
	for _, l := range home.Devices {
		p := byLabel[l]
		if !matches(spec.Targets, p.Label, p.Class) || p.EventAttr == "" || len(p.EventValues) == 0 {
			continue
		}
		out = append(out, l)
		if len(out) >= spec.Targets.PerHome {
			break
		}
	}
	return out
}

func matches(t fleet.TargetSpec, label, class string) bool {
	for _, l := range t.Labels {
		if l == label {
			return true
		}
	}
	for _, c := range t.Classes {
		if c == class {
			return true
		}
	}
	return false
}

// simTimeBound bounds one trial's simulated time: the widest window plus
// slack, as the campaign engine bounds it.
func simTimeBound(spec fleet.Spec, m core.Measured) time.Duration {
	bound := spec.Hold()
	if _, max, ok := m.EventWindow(); ok && max > bound {
		bound = max
	}
	if _, max, ok := m.CommandWindow(); ok && max > bound {
		bound = max
	}
	return bound + 10*time.Minute
}
