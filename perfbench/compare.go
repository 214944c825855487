package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// hostIndependent are the metrics that compare across hosts: work counts,
// allocation volume, outcome fractions and CPU shares do not depend on the
// machine; timings and memory footprint do.
func hostIndependent(name, unit string) bool {
	return unit == "count" || unit == "kB" || unit == "frac" ||
		name == "replay.accepted_per_injected" || strings.HasPrefix(name, "cpu.")
}

// compareReports prints old and new values of every metric two reports
// share. Host-dependent metrics are compared only when both reports come
// from the same host; across hosts they are listed as refused.
func compareReports(w io.Writer, oldPath, newPath string) error {
	var reps [2]report
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	old, cur := reps[0], reps[1]
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("reports are of different runs: %s trace=%v vs %s trace=%v", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	sameHost := old.Host == cur.Host
	if !sameHost {
		fmt.Fprintf(w, "hosts differ (%+v vs %+v): host-dependent metrics are not compared\n", old.Host, cur.Host)
	}
	fmt.Fprintf(w, "digest %s -> %s (same seed: %v)\n", old.Digest, cur.Digest, old.Seed == cur.Seed)
	for _, k := range sortedKeys(old.Counts) {
		if o, n := old.Counts[k], cur.Counts[k]; o != n {
			fmt.Fprintf(w, "  count %-28s %14.4f -> %14.4f\n", k, o, n)
		}
	}
	all := make(map[string]metric)
	for k, v := range old.Named {
		all["named "+k] = v
	}
	for k, v := range old.Metrics {
		all["metric "+k] = v
	}
	for _, k := range sortedKeys(all) {
		kind, name, _ := strings.Cut(k, " ")
		o := all[k]
		n, ok := cur.Metrics[name]
		if kind == "named" {
			n, ok = cur.Named[name]
		}
		if !ok {
			continue
		}
		if !sameHost && !hostIndependent(name, o.Unit) {
			fmt.Fprintf(w, "  %-6s %-28s refused: depends on the host\n", kind, name)
			continue
		}
		delta := 0.0
		if o.Value != 0 {
			delta = 100 * (n.Value - o.Value) / o.Value
		}
		fmt.Fprintf(w, "  %-6s %-28s %14.4f -> %14.4f %s (%+.1f%%)\n", kind, name, o.Value, n.Value, o.Unit, delta)
	}
	return nil
}
