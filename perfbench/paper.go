package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// paperBench is the paper-repro workload: one pass regenerates, serially
// and at phantomlab's defaults for one seed, every artifact of the paper's
// evaluation plus the replay assessment. Passes repeat over successive
// seeds.
type paperBench struct {
	seed                  int64
	cloud, local, catalog []string
	verifyLabels          []string
}

// artifacts in pass order; each is timed on its own.
var artifacts = []string{"table1", "table2", "table3", "verify", "findings", "replay"}

func (b *paperBench) setup(seed int64) error {
	b.seed = seed
	b.cloud, b.local, b.catalog = nil, nil, nil
	for _, p := range device.CloudProfiles() {
		b.cloud = append(b.cloud, p.Label)
	}
	for _, p := range device.LocalProfiles() {
		b.local = append(b.local, p.Label)
	}
	for _, p := range device.Catalog() {
		b.catalog = append(b.catalog, p.Label)
	}
	b.verifyLabels = []string{"C1", "L2", "CM1", "K2", "M7", "A1"}
	// Warm-up: a third of Table I on a seed no pass uses.
	for _, r := range experiment.RunTable(b.cloud[:11], experiment.TableOptions{Seed: -seed - 1, Trials: 1}) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// artifactOutcome is one artifact's result: its rendered output, merged
// metrics and whether its paper-level conclusion held.
type artifactOutcome struct {
	ok      bool
	detail  string
	metrics []obs.Snapshot
	render  func(dg *digester) error
}

func (b *paperBench) runArtifact(name string, seed int64) artifactOutcome {
	opts := experiment.TableOptions{Seed: seed, Trials: 3, Recovery: 30 * time.Second}
	switch name {
	case "table1", "table2":
		labels := b.cloud
		if name == "table2" {
			labels = b.local
			opts.UnboundedDemo = 2 * time.Hour
		}
		rows := experiment.RunTable(labels, opts)
		o := artifactOutcome{ok: true, render: func(dg *digester) error { return experiment.WriteRowsJSON(dg, rows) }}
		for _, r := range rows {
			o.metrics = append(o.metrics, r.Metrics)
			if r.Err != nil || !r.ParametersVerified || !r.StealthOK {
				o.ok = false
				o.detail = fmt.Sprintf("%s: err %v verified %v stealth %v", r.Label, r.Err, r.ParametersVerified, r.StealthOK)
			}
		}
		return o
	case "table3":
		results := experiment.RunCases(experiment.Table3Cases(), seed+500)
		o := artifactOutcome{ok: true, render: func(dg *digester) error { return experiment.WriteCasesJSON(dg, results) }}
		n := 0
		for _, r := range results {
			o.metrics = append(o.metrics, r.Metrics)
			if r.Succeeded() {
				n++
			}
		}
		o.ok = n == len(results) && n == 11
		o.detail = fmt.Sprintf("%d/%d cases succeeded", n, len(results))
		return o
	case "verify":
		results := experiment.RunVerification(b.verifyLabels, experiment.VerifyOptions{Seed: seed + 600, Trials: 3})
		o := artifactOutcome{ok: true, render: func(dg *digester) error { experiment.FormatVerifyResults(dg, results); return nil }}
		for _, r := range results {
			o.metrics = append(o.metrics, r.Metrics)
			if !r.Perfect() {
				o.ok = false
				o.detail = fmt.Sprintf("%s: not perfect (%d/%d avoided, %d accepted, err %v)", r.Label, r.TimeoutsAvoided, r.Trials, r.Accepted, r.Err)
			}
		}
		return o
	case "findings":
		results := experiment.RunFindings(seed + 700)
		o := artifactOutcome{ok: len(results) == 3, render: func(dg *digester) error { experiment.FormatFindings(dg, results); return nil }}
		for _, r := range results {
			o.metrics = append(o.metrics, r.Metrics)
			if r.Err != nil || !r.Holds {
				o.ok = false
				o.detail = fmt.Sprintf("finding %d does not hold (err %v)", r.ID, r.Err)
			}
		}
		return o
	default: // replay
		results := experiment.RunReplayAssessment(b.catalog, experiment.ReplayOptions{Seed: seed + 1300})
		o := artifactOutcome{ok: true, render: func(dg *digester) error { experiment.FormatReplayTable(dg, results); return nil }}
		classes := map[experiment.ReplayClass]int{}
		for _, r := range results {
			o.metrics = append(o.metrics, r.Metrics)
			classes[r.Class]++
			if r.Err != nil {
				o.ok = false
				o.detail = fmt.Sprintf("%s: %v", r.Label, r.Err)
			}
		}
		if o.ok {
			o.detail = fmt.Sprintf("classes %v", classes)
		}
		return o
	}
}

func (b *paperBench) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{named: map[string]metric{}, timings: map[string]timing{}}
	perArtifact := make(map[string][]float64)
	allocBefore := totalAlloc()
	start, cpuStart := time.Now(), cpuTime()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		seed := b.seed + int64(pass)
		var passCPU time.Duration
		var snaps []obs.Snapshot
		dg := newDigester()
		for _, name := range artifacts {
			s := tr.begin("paper."+name, pass)
			c0 := cpuTime()
			o := b.runArtifact(name, seed)
			cpu := cpuTime() - c0
			tr.end(s)
			passCPU += cpu
			perArtifact[name] = append(perArtifact[name], ms(cpu))
			for _, snap := range o.metrics {
				p.events += counterSum(snap, "simtime_events_total")
			}
			p.attempted++
			if !o.ok {
				p.failed++
				p.check(fmt.Sprintf("pass %d %s conclusion holds", pass, name), false, "%s", o.detail)
			}
			if pass == 0 {
				if err := o.render(dg); err != nil {
					return nil, err
				}
				snaps = append(snaps, o.metrics...)
			}
		}
		p.units++
		p.opMS = append(p.opMS, ms(passCPU))
		if pass == 0 {
			merged := obs.Merge(snaps...)
			dg.json(merged)
			p.digest = dg.sum()
			p.counts = countsPerOp(merged, 1)
		}
	}
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpuStart
	p.alloc = totalAlloc() - allocBefore
	p.check("paper-level conclusions", p.failed == 0, "%d of %d artifacts failed", p.failed, p.attempted)
	p.timings["pass_cpu_s"] = summarize(scale(p.opMS, 1e-3), "s")
	for _, name := range artifacts {
		p.timings[name+"_cpu_ms"] = summarize(perArtifact[name], "ms")
	}
	p.named["alloc_kb_per_pass"] = metric{float64(p.alloc) / float64(p.units) / 1024, "kB"}
	p.named["passes_per_s"] = metric{float64(p.units) / p.elapsed.Seconds(), "1/s"}
	return p, nil
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
