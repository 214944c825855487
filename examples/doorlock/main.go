// Doorlock reproduces Figure 3(d) / Case 10: the Type-III disabled
// execution attack. The home auto-locks the front door when the user
// leaves — unless the attacker holds the "door unlocked" state update
// until after the "presence away" trigger has passed, leaving the door
// unlocked all day with zero alarms.
//
// Run with: go run ./examples/doorlock
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
		Seed:    13,
		Devices: []string{"P1", "LK1"}, // presence sensor + August lock
	})
	if err != nil {
		return err
	}
	if err := s.Integration.AddRule(rules.Rule{
		Name:      "lock-when-leaving",
		Trigger:   rules.Trigger{Device: "P1", Attribute: "presence", Value: "away"},
		Condition: rules.Eq{Device: "LK1", Attribute: "lock", Value: "unlocked"},
		Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
	}); err != nil {
		return err
	}

	hLock, err := s.Hijack("LK1")
	if err != nil {
		return err
	}
	hPresence, err := s.Hijack("P1")
	if err != nil {
		return err
	}
	s.Start()

	// Initial state: user home, door locked.
	_ = s.Device("P1").TriggerEvent("presence", "present")
	_ = s.Device("LK1").TriggerEvent("lock", "locked")
	s.Clock.RunFor(5 * time.Second)

	// The attack: hold LK1's "unlocked" state update until the presence
	// trigger has gone through (plus slack). The server then evaluates
	// "lock unlocked?" against its stale "locked" belief and does nothing.
	core.DisabledExecution(hLock, "LK1", hPresence, "P1", 5*time.Second)

	fmt.Printf("[%7s] user unlocks the door and walks out\n", s.Clock.Now().Round(time.Second))
	_ = s.Device("LK1").TriggerEvent("lock", "unlocked")
	s.Clock.RunFor(8 * time.Second)

	fmt.Printf("[%7s] user drives away (presence -> away)\n", s.Clock.Now().Round(time.Second))
	_ = s.Device("P1").TriggerEvent("presence", "away")

	// The rest of the day.
	s.Clock.RunFor(8 * time.Hour)

	fmt.Printf("[%7s] end of day\n", s.Clock.Now().Round(time.Second))
	fmt.Printf("\nfront door state:          %s\n", s.Device("LK1").State("lock"))
	fmt.Printf("rule executions:           %d\n", len(s.Integration.Engine().Executions("lock-when-leaving")))
	fmt.Printf("server-side alarms:        %d\n", s.TotalAlarmCount())
	fmt.Println("\nthe automation that should have locked the door never fired;")
	fmt.Println("the phantom delay reordered the cyber world against the physical one")
	return nil
}
