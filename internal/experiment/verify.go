package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// VerifyResult reports the Section VI-C verification test for one device:
// messages are triggered at random phases, delayed to the margin before
// the predicted timeout, and released; the collected parameters are
// correct if every trial avoids the timeout and the message is accepted.
type VerifyResult struct {
	Label           string
	Trials          int
	TimeoutsAvoided int
	Accepted        int
	Err             error

	// Metrics is the device testbed's observability snapshot, taken after
	// the trials finished (or failed).
	Metrics obs.Snapshot
}

// Perfect reports the paper's outcome: 100% avoidance and acceptance.
func (r VerifyResult) Perfect() bool {
	return r.Err == nil && r.TimeoutsAvoided == r.Trials && r.Accepted == r.Trials
}

// VerifyOptions tunes the verification runs.
type VerifyOptions struct {
	Seed   int64
	Trials int
	// Margin before the predicted timeout at which holds release
	// (the paper uses 2 seconds).
	Margin time.Duration
	// TraceCap sizes each testbed's flight-recorder ring (see
	// TestbedConfig.TraceCap).
	TraceCap int
}

// RunVerification profiles each device, then runs randomized delay trials
// using the measured parameters for prediction.
func RunVerification(labels []string, opts VerifyOptions) []VerifyResult {
	if opts.Trials <= 0 {
		opts.Trials = 5
	}
	if opts.Margin <= 0 {
		opts.Margin = 2 * time.Second
	}
	out := make([]VerifyResult, 0, len(labels))
	for i, label := range labels {
		out = append(out, verifyDevice(label, opts, opts.Seed+int64(i)*311))
	}
	return out
}

func verifyDevice(label string, opts VerifyOptions, seed int64) (res VerifyResult) {
	res = VerifyResult{Label: label, Trials: opts.Trials}
	s, h, err := startHijacked(TestbedConfig{Seed: seed, Devices: []string{label}, TraceCap: opts.TraceCap}, label)
	defer func() { res.Metrics = s.snapshot() }()
	if err != nil {
		res.Err = err
		return res
	}

	lab, err := s.NewLab(h, label)
	if err != nil {
		res.Err = err
		return res
	}
	lab.Trials = 2
	lab.Recovery = 30 * time.Second
	m, err := lab.Profile()
	if err != nil {
		res.Err = err
		return res
	}
	origin := lab.EventOrigin
	_, _, bounded := m.EventWindow()
	kind := "unbounded"
	if bounded {
		kind = "verification"
		h.ArmPredictor(m)
	}
	rng := simtime.NewRand(seed + 7)

	for i := 0; i < opts.Trials; i++ {
		var r HoldResult
		var err error
		if bounded {
			// Random phase within the keep-alive cycle.
			s.Clock.RunFor(rng.DurationRange(3*time.Second, 40*time.Second))
			r, err = s.Hold(h.MaxEDelay(origin, opts.Margin), origin, lab.TriggerEvent, 20*time.Minute)
		} else {
			// Unbounded devices trivially avoid timeouts; verify
			// acceptance with a one-hour hold per trial.
			r, err = s.hold(h.EDelay(origin, time.Hour), origin, lab.TriggerEvent, func(*HoldResult) {
				s.Clock.RunFor(time.Hour + 10*time.Second)
			})
		}
		if err != nil {
			res.Err = err
			return res
		}
		if !r.Released {
			res.Err = fmt.Errorf("experiment: %s trial %d never released", kind, i)
			return res
		}
		if s.SessionOwner(label).Connected() && r.Alarms == 0 {
			res.TimeoutsAvoided++
		}
		if r.Accepted > 0 {
			res.Accepted++
		}
		if bounded {
			s.Clock.RunFor(10 * time.Second)
		}
	}
	return res
}

// FormatVerifyResults renders the verification outcomes.
func FormatVerifyResults(w io.Writer, results []VerifyResult) {
	fmt.Fprintf(w, "Verification test (release at margin before predicted timeout)\n%s\n", strings.Repeat("=", 64))
	fmt.Fprintf(w, "%-6s %-8s %-16s %-10s %-8s\n", "Label", "Trials", "TimeoutsAvoided", "Accepted", "Perfect")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-6s ERROR: %v\n", r.Label, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %-8d %-16d %-10d %-8v\n", r.Label, r.Trials, r.TimeoutsAvoided, r.Accepted, r.Perfect())
	}
}
