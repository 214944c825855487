package experiment

import (
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/device"
)

// TestProfilerRecoversDeployedProfiles justifies the ground-truth shortcut
// marginPoint and ackPoint take: arming with MeasuredFromProfile instead
// of profiling is sound only if the profiler recovers those parameters.
// It must on the ablation's C1 and on the defense study's C2, stock and
// hardened at every ACK timeout the study deploys.
func TestProfilerRecoversDeployedProfiles(t *testing.T) {
	c2, err := device.Lookup("C2")
	if err != nil {
		t.Fatal(err)
	}
	h3, err := device.SessionProfile(c2, device.Index())
	if err != nil {
		t.Fatal(err)
	}
	type deployment struct {
		name      string
		label     string
		overrides []device.Profile
	}
	cases := []deployment{{name: "C1", label: "C1"}, {name: "C2/stock", label: "C2"}}
	for _, to := range []time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second} {
		cases = append(cases, deployment{"C2/ack-" + to.String(), "C2", []device.Profile{defense.HardenProfile(h3, to)}})
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, h, err := startHijacked(TestbedConfig{Seed: 1700 + int64(i), Devices: []string{c.label}, Overrides: c.overrides}, c.label)
			if err != nil {
				t.Fatal(err)
			}
			lab, err := s.NewLab(h, c.label)
			if err != nil {
				t.Fatal(err)
			}
			lab.Trials = 3
			lab.Recovery = 30 * time.Second
			m, err := lab.Profile()
			if err != nil {
				t.Fatal(err)
			}
			truth, _ := device.Lookup(c.label)
			if !parametersMatch(m, truth, s.Testbed) {
				t.Fatalf("profiled %v, deployed %v", m, MeasuredFromProfile(s.SessionOwnerProfile(c.label)))
			}
		})
	}
}
