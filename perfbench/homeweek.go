package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// homeWeekDevices is BenchmarkSimulatedHomeHour's ten-device home.
var homeWeekDevices = []string{"C1", "M1", "L2", "C2", "M3", "P2", "CM1", "K2", "T1", "SD1"}

const (
	weekHours       = 168
	triggerEvery    = 15 * time.Minute
	triggersPerHour = int(time.Hour / triggerEvery)
	warmupHours     = 3
	// hijackedDevice's session is bridged by the attacker for the whole week.
	hijackedDevice = "C1"
)

// trigger is one scheduled device event.
type trigger struct {
	label, attr, value string
}

// homeWeekBench is the home-week workload: one home, its C1 session
// bridged by the attacker's hijacker, simulated for a week with one device
// event every 15 sim-minutes, round-robin over the devices that report
// events. A run simulates successive weeks (fresh homes on successive
// seeds) until its time is up.
type homeWeekBench struct {
	seed     int64
	schedule []trigger // one week of triggers
}

func (b *homeWeekBench) setup(seed int64) error {
	b.seed = seed
	byLabel := device.Index()
	var reporters []device.Profile
	for _, l := range homeWeekDevices {
		if p := byLabel[l]; p.EventAttr != "" && len(p.EventValues) > 0 {
			reporters = append(reporters, p)
		}
	}
	// Round-robin from a seed-chosen device; each device walks its values
	// so that every trigger is a genuine state change.
	b.schedule = b.schedule[:0]
	next := make(map[string]int)
	for i := 0; i < weekHours*triggersPerHour; i++ {
		p := reporters[(i+int(uint64(seed)%uint64(len(reporters))))%len(reporters)]
		v := p.EventValues[next[p.Label]%len(p.EventValues)]
		next[p.Label]++
		b.schedule = append(b.schedule, trigger{p.Label, p.EventAttr, v})
	}
	// Warm-up: the first sim-hours of a home on a seed no week uses.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: -seed - 1, Devices: homeWeekDevices})
	if err != nil {
		return err
	}
	tb.Start()
	for _, trg := range b.schedule[:warmupHours*triggersPerHour] {
		if err := tb.Device(trg.label).TriggerEvent(trg.attr, trg.value); err != nil {
			return err
		}
		tb.Clock.RunFor(triggerEvery)
	}
	return nil
}

func (b *homeWeekBench) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{named: map[string]metric{}, timings: map[string]timing{}}
	acc := obs.NewAccumulator()
	allocBefore := totalAlloc()
	start, cpuStart := time.Now(), cpuTime()
	for week := 0; week == 0 || time.Since(start) < d; week++ {
		done, err := b.week(week, d, start, tr, acc, p)
		if err != nil {
			return nil, err
		}
		if !done {
			break
		}
	}
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpuStart
	p.alloc = totalAlloc() - allocBefore
	p.events = counterSum(acc.State(), "simtime_events_total")
	rate := float64(p.units) / p.elapsed.Seconds()
	p.check("triggered events accepted, no alarms", p.failed == 0, "%d of %d triggers failed", p.failed, p.attempted)
	p.named["sim_hours_per_s"] = metric{rate, "1/s"}
	p.named["alloc_kb_per_sim_hour"] = metric{float64(p.alloc) / float64(p.units) / 1024, "kB"}
	p.timings["sim_hour_cpu_ms"] = summarize(p.opMS, "ms")
	return p, nil
}

// week simulates one week on a fresh home. Week 0 always runs to the end —
// it is the fixed unit behind the digest and the counts; later weeks stop
// when the run's time is up, and report false.
func (b *homeWeekBench) week(week int, d time.Duration, start time.Time, tr *tracer, acc *obs.Accumulator, p *phase) (bool, error) {
	s := tr.begin("experiment.build", week)
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: b.seed*1_000_003 + int64(week), Devices: homeWeekDevices})
	tr.end(s)
	if err != nil {
		return false, err
	}
	s = tr.begin("core.hijack", week)
	atk, err := tb.NewAttacker()
	if err == nil {
		_, err = tb.Hijack(atk, hijackedDevice)
	}
	tr.end(s)
	if err != nil {
		return false, err
	}
	s = tr.begin("experiment.start", week)
	tb.Start()
	tr.end(s)

	events := tb.Metrics.Counter("simtime_events_total")
	sent := make(map[string]int)
	before := make(map[string]int)
	for _, l := range homeWeekDevices {
		before[l] = tb.AcceptedEventCount(l)
	}
	complete := true
	for hour := 0; hour < weekHours; hour++ {
		if week > 0 && time.Since(start) >= d {
			complete = false
			break
		}
		c0 := cpuTime()
		for q := 0; q < triggersPerHour; q++ {
			trg := b.schedule[hour*triggersPerHour+q]
			s := tr.begin("device.trigger", week)
			err := tb.Device(trg.label).TriggerEvent(trg.attr, trg.value)
			tr.end(s)
			p.attempted++
			if err != nil {
				p.failed++
				p.check(fmt.Sprintf("week %d hour %d trigger %s", week, hour, trg.label), false, "%v", err)
			} else {
				sent[trg.label]++
			}
			runClock(tr, events, week, func() { tb.Clock.RunFor(triggerEvery) })
		}
		p.opMS = append(p.opMS, ms(cpuTime()-c0))
		p.units++
	}

	// Events still in flight at a cut-off week are not failures.
	if complete {
		for _, l := range homeWeekDevices {
			if missing := sent[l] - (tb.AcceptedEventCount(l) - before[l]); missing > 0 {
				p.failed += missing
				p.check(fmt.Sprintf("week %d %s events accepted", week, l), false, "%d of %d not accepted", missing, sent[l])
			}
		}
	}
	if alarms := tb.TotalAlarmCount(); alarms > 0 {
		p.failed += alarms
		p.check(fmt.Sprintf("week %d no alarms", week), false, "%d alarms", alarms)
	}

	// Weeks fold into the run's aggregate as homes fold into a campaign's.
	s = tr.begin("obs.fold", week)
	snap := tb.Metrics.Snapshot()
	acc.Add(snap)
	tr.end(s)
	if week == 0 {
		dg := newDigester()
		dg.json(snap)
		accepted := make([]int, len(homeWeekDevices))
		for i, l := range homeWeekDevices {
			accepted[i] = tb.AcceptedEventCount(l)
		}
		dg.json(accepted)
		p.digest = dg.sum()
		p.counts = countsPerOp(snap, weekHours)
	}
	return complete, nil
}
