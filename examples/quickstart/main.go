// Quickstart: build a simulated smart home, take a man-in-the-middle
// position with one attacker device, and delay a sensor event by 25
// seconds without tripping a single timer.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiment"
	"repro/internal/rules"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A home with a Ring contact sensor (C2) behind its base station, and
	// an automation server that pushes a notification when the door opens.
	s, err := experiment.NewSession(experiment.TestbedConfig{
		Seed:    1,
		Devices: []string{"C2"},
	})
	if err != nil {
		return err
	}
	if err := s.Integration.AddRule(rules.Rule{
		Name:    "door-alert",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "open"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "front door opened"}},
	}); err != nil {
		return err
	}

	// The attacker (NewSession joined it to the LAN): one compromised WiFi
	// device. It ARP-poisons the base station and the router, splits the
	// TCP connection, and relays everything transparently.
	hijacker, err := s.Hijack("C2")
	if err != nil {
		return err
	}
	s.Start()
	fmt.Println("home is up; the Ring base station's TLS session runs through the attacker")

	// Arm the e-Delay primitive: hold the next contact event for 25s
	// (inside Ring's 60s window), then release it in order.
	hijacker.EDelay("C2", 25*time.Second)

	openedAt := s.Clock.Now()
	if err := s.Device("C2").TriggerEvent("contact", "open"); err != nil {
		return err
	}
	fmt.Printf("[%6s] door physically opens\n", s.Clock.Now())

	s.Clock.RunFor(time.Minute)

	for _, n := range s.Integration.Notifications() {
		fmt.Printf("[%6s] user notified: %q (%.0fs after the door opened)\n",
			n.At, n.Message, (n.At - openedAt).Seconds())
	}
	fmt.Printf("server-side alarms raised: %d\n", s.TotalAlarmCount())
	fmt.Println("the event arrived intact, late, and nobody noticed — that is the phantom delay")
	return nil
}
