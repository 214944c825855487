// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed host-time budget, checks the simulator's outputs,
// and prints the workload's metrics, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload fleet-edelay --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// reports the per-layer metrics instead: it splits the time between an
// untraced pass, a traced pass whose spans wrap calls into each layer and
// a CPU-profiled pass, and adds an allocation pass. README.md lists the
// workloads, the metrics and which end-to-end metric each per-layer metric
// is expected to move.
//
// Every run also writes its full report (host stanza, checks, named
// metrics, deterministic counts, output digest) to
// .bench_out/<workload>-seed<n>-trace<t>.json. Two reports compare with
//
//	bash perfbench/run.sh --compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark input set. run executes it for at least d of
// host time (and at least its fixed first unit), tracing calls into the
// simulator's layers when tr is non-nil.
type workload interface {
	setup(seed int64) error
	run(d time.Duration, tr *tracer) (*phase, error)
}

var workloads = []struct {
	name string
	why  string
	make func() workload
}{
	{"fleet-edelay", "build- and handshake-heavy: per generated home a fresh testbed, its TLS sessions and one 60 s hold, via fleet.Campaign.Run with one worker", func() workload { return &fleetBench{} }},
	{"paper-repro", "what a reproducer waits for: Tables I-III, verification, findings and the replay assessment at CLI defaults, one pass per seed", func() workload { return &paperBench{} }},
	{"home-week", "per-event and per-frame cost: one hijacked 10-device home for 168 sim-hours; bypasses build, handshake and RNG seeding", func() workload { return &homeWeekBench{} }},
}

// phase is what one run of a workload measured.
type phase struct {
	units     int           // operations completed: homes, passes or sim-hours
	elapsed   time.Duration // wall time of the measured loop
	cpu       time.Duration // process CPU time of the measured loop
	opMS      []float64     // per-operation process CPU time samples
	alloc     uint64        // heap bytes allocated during the loop
	events    uint64        // simulated events the loop executed
	attempted int
	failed    int
	checks    []check
	// digest hashes the outputs of the run's fixed first unit (campaign,
	// pass or week), and counts are that unit's deterministic work counts
	// per operation, so both are comparable between any two runs with the
	// same seed.
	digest string
	counts map[string]float64
	// named carries the workload's own end-to-end metrics and timings.
	named   map[string]metric
	timings map[string]timing
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (p *phase) check(name string, ok bool, format string, args ...any) {
	p.checks = append(p.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// report is the full record of one run, written to .bench_out.
type report struct {
	Workload  string                `json:"workload"`
	Why       string                `json:"why"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Host      host                  `json:"host"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Checks    []check               `json:"checks"`
	Named     map[string]metric     `json:"named"`
	Timings   map[string]timing     `json:"timings"`
	Counts    map[string]float64    `json:"countsPerOp"`
	Digest    string                `json:"digest"`
	Metrics   map[string]metric     `json:"metrics"`
	Spans     map[string]*spanStats `json:"spans,omitempty"`
	SetupS    []float64             `json:"setupRepsS"`
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

func main() {
	workloadName := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "wall-clock seconds the measured loop runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	compare := flag.Bool("compare", false, "compare two report files given as arguments")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		fatal(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
		return
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace))
	}
	for _, w := range workloads {
		if w.name == *workloadName {
			fatal(runWorkload(w.name, w.why, w.make(), *seed, *seconds, *trace == 1))
			return
		}
	}
	fatal(fmt.Errorf("unknown workload %q", *workloadName))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(name, why string, w workload, seed int64, seconds int, traced bool) error {
	rep := report{Workload: name, Why: why, Seed: seed, Seconds: seconds, Trace: traced, Host: thisHost()}
	d := time.Duration(seconds) * time.Second

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every repetition starts from the same heap state
		start := cpuTime()
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}
	setupS := median(setups)
	rep.SetupS = setups

	// A traced run splits its time between the untraced, traced and
	// CPU-profiled passes, so that it takes no longer than an untraced run.
	if traced {
		d /= 3
	}
	runtime.GC()
	ph, err := w.run(d, nil)
	if err != nil {
		return err
	}
	rep.Checks = ph.checks
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	rep.Named, rep.Timings = ph.named, ph.timings
	rep.Named["setup_s"] = metric{setupS, "s"}
	rep.Named["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	rep.Named["failed_frac"] = metric{float64(ph.failed) / float64(ph.attempted), "frac"}
	rep.Named["cpu_per_wall"] = metric{ph.cpu.Seconds() / ph.elapsed.Seconds(), "ratio"}
	rep.Counts, rep.Digest = ph.counts, ph.digest
	rate := float64(ph.units) / ph.cpu.Seconds()

	if !traced {
		rep.Metrics = map[string]metric{
			"ops_per_cpu_s":   {rate, "1/s"},
			"op_cpu_ms":       {median(ph.opMS), "ms"},
			"alloc_kb_per_op": {float64(ph.alloc) / float64(ph.units) / 1024, "kB"},
			"max_rss_mb":      rep.Named["max_rss_mb"],
			"setup_s":         {setupS, "s"},
		}
	} else {
		layers, spans, checks, err := perLayer(w, d, ph, rate, filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", name, seed)))
		if err != nil {
			return err
		}
		rep.Metrics, rep.Spans = layers, spans
		rep.Checks = append(rep.Checks, checks...)
	}
	rep.Correct = rep.Failed == 0
	for _, c := range rep.Checks {
		rep.Correct = rep.Correct && c.OK
	}
	if err := writeReport(rep); err != nil {
		return err
	}
	printReport(rep)
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": rep.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spanMetrics maps the per-layer span metrics to span names; a workload
// whose pipeline never enters a span reports 0 for it.
var spanMetrics = []struct{ metric, span string }{
	{"fleet.generate_home_us", "fleet.generate_home"},
	{"experiment.build_us", "experiment.build"},
	{"core.hijack_us", "core.hijack"},
	{"experiment.start_us", "experiment.start"},
	{"core.trial_us", "core.trial"},
	{"device.trigger_us", "device.trigger"},
	{"obs.fold_us", "obs.fold"},
}

// allocSpans are the spans whose self allocation is reported per call.
var allocSpans = []string{
	"fleet.generate_home", "experiment.build", "core.hijack", "experiment.start",
	"core.trial", "device.trigger", "simtime.run", "obs.fold",
}

// perLayer runs the traced, allocation and CPU-profiled passes after the
// untraced one (which ran at rate operations per second) and derives the
// per-layer metrics. Span times are wall time: they are too short for the
// process CPU clock.
func perLayer(w workload, d time.Duration, untraced *phase, rate float64, spansPath string) (map[string]metric, map[string]*spanStats, []check, error) {
	var checks []check
	tr := newTracer(false)
	runtime.GC()
	traced, err := w.run(d, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range traced.checks {
		c.Name = "traced: " + c.Name
		checks = append(checks, c)
	}
	checks = append(checks, check{Name: "traced outputs equal untraced", OK: traced.digest == untraced.digest,
		Detail: fmt.Sprintf("untraced %s traced %s", untraced.digest, traced.digest)})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	if err := tr.writeChrome(spansPath); err != nil {
		return nil, nil, nil, err
	}
	spans := tr.stats()

	at := newTracer(true)
	if _, err := w.run(0, at); err != nil {
		return nil, nil, nil, err
	}
	allocs := at.stats()

	runtime.GC()
	flat, samples, err := profileCPU(func() error { _, err := w.run(d, nil); return err })
	if err != nil {
		return nil, nil, nil, err
	}
	shares := groupShares(flat)
	checks = append(checks, check{Name: "cpu profile has samples", OK: samples >= 20, Detail: fmt.Sprintf("%d samples", samples)})

	m := make(map[string]metric)
	for _, s := range spanMetrics {
		v := 0.0
		if st := spans[s.span]; st != nil {
			v = float64(st.Self) / float64(st.Calls)
		}
		m[s.metric] = metric{v / 1e3, "us"}
	}
	run := spans["simtime.run"]
	m["simtime.run_ns_per_event"] = metric{0, "ns"}
	if run != nil && run.Events > 0 {
		m["simtime.run_ns_per_event"] = metric{float64(run.Self) / float64(run.Events), "ns"}
	}
	for _, s := range allocSpans {
		v := 0.0
		if st := allocs[s]; st != nil {
			v = float64(st.Alloc) / float64(st.Calls) / 1024
		}
		m[s+"_alloc_kb"] = metric{v, "kB"}
	}
	homeMS := tr.durationsMS("fleet.home")
	sort.Float64s(homeMS)
	m["fleet.home_ms_p50"] = metric{quantile(homeMS, 0.5), "ms"}
	m["fleet.home_ms_p99"] = metric{quantile(homeMS, 0.99), "ms"}
	for _, c := range countMetrics {
		m[c.metric] = metric{untraced.counts[c.metric], "count"}
	}
	m["replay.accepted_per_injected"] = metric{untraced.counts["replay.accepted_per_injected"], "ratio"}
	m["host_ns_per_sim_event"] = metric{0, "ns"}
	if untraced.events > 0 {
		m["host_ns_per_sim_event"] = metric{float64(untraced.cpu) / float64(untraced.events), "ns"}
	}
	for _, g := range cpuGroups {
		m["cpu."+g.name] = metric{shares[g.name], "%"}
	}
	tracedRate := float64(traced.units) / traced.cpu.Seconds()
	m["trace.overhead_pct"] = metric{100 * (rate - tracedRate) / rate, "%"}
	return m, spans, checks, nil
}

// outDir holds run reports and span files, relative to the checkout root.
const outDir = ".bench_out"

func writeReport(rep report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if rep.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, t)), append(data, '\n'), 0o644)
}

func printReport(rep report) {
	h := rep.Host
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Printf("  host %s/%s %q nproc=%d GOMAXPROCS=%d %s\n", h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	for _, k := range sortedKeys(rep.Named) {
		fmt.Printf("  %-28s %14.4f %s\n", k, rep.Named[k].Value, rep.Named[k].Unit)
	}
	for _, k := range sortedKeys(rep.Timings) {
		t := rep.Timings[k]
		fmt.Printf("  %-28s p50 %.4f p%g %.4f %s (n=%d)\n", k, t.P50, t.Pct, t.PctVal, t.Unit, t.N)
	}
	for _, c := range rep.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Printf("  attempted %d failed %d digest %s\n", rep.Attempted, rep.Failed, rep.Digest)
	if rep.Trace {
		for _, k := range sortedKeys(rep.Metrics) {
			fmt.Printf("  %-28s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
