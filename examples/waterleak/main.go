// Waterleak reproduces Figure 3(b): the Type-II action delay attack. A
// leak sensor should shut a smart water valve immediately; the attacker
// stacks e-Delay on the sensor's event with c-Delay on the valve's
// command, and the bathroom floods for the combined window.
//
// Run with: go run ./examples/waterleak
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rules"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s, err := experiment.NewSession(experiment.TestbedConfig{
		Seed:    11,
		Devices: []string{"W1", "V1"}, // Govee leak sensor + LeakSmart valve
	})
	if err != nil {
		return err
	}
	if err := s.Integration.AddRule(rules.Rule{
		Name:    "shut-off-on-leak",
		Trigger: rules.Trigger{Device: "W1", Attribute: "water", Value: "wet"},
		Actions: []rules.Action{
			{Kind: rules.ActionCommand, Device: "V1", Attribute: "valve", Value: "closed"},
			{Kind: rules.ActionNotify, Message: "water leak! shutting the valve"},
		},
	}); err != nil {
		return err
	}

	hSensor, err := s.Hijack("W1")
	if err != nil {
		return err
	}
	hValve, err := s.Hijack("V1")
	if err != nil {
		return err
	}
	s.Start()

	// Stack the two primitives: the sensor's on-demand session tolerates
	// minutes of event delay (Finding 1); the valve command adds its own
	// window on top.
	core.NewActionDelay(core.ActionDelayConfig{
		TriggerHijacker: hSensor, TriggerOrigin: "W1", TriggerHold: 90 * time.Second,
		CommandHijacker: hValve, CommandOrigin: "V1", CommandHold: 18 * time.Second,
	})

	leakAt := s.Clock.Now()
	if err := s.Device("W1").TriggerEvent("water", "wet"); err != nil {
		return err
	}
	fmt.Printf("[%8s] pipe bursts; sensor reports wet\n", s.Clock.Now().Round(time.Millisecond))

	// Watch the valve while the water runs.
	for i := 0; i < 5; i++ {
		s.Clock.RunFor(30 * time.Second)
		fmt.Printf("[%8s] valve state: %s\n",
			s.Clock.Now().Round(time.Second), stateOr(s.Testbed, "V1", "valve", "open"))
	}

	at, ok := actuation(s.Testbed, "V1")
	if !ok {
		return fmt.Errorf("valve never closed")
	}
	fmt.Printf("\nvalve closed %.0f seconds after the leak began (stacked e-Delay + c-Delay)\n",
		(at - leakAt).Seconds())
	fmt.Printf("alarms raised: %d\n", s.TotalAlarmCount())
	return nil
}

func stateOr(tb *experiment.Testbed, label, attr, fallback string) string {
	if v := tb.Device(label).State(attr); v != "" {
		return v
	}
	return fallback
}

func actuation(tb *experiment.Testbed, label string) (time.Duration, bool) {
	for _, e := range tb.Device(label).Log() {
		if e.Kind == "command-applied" {
			return e.At, true
		}
	}
	return 0, false
}
