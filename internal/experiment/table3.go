package experiment

import (
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/rules"
)

// Table3Cases returns the eleven proof-of-concept attacks of Table III.
// The rules come from the paper's forum-collected automations; devices are
// mapped onto the catalog. One modelling note: the paper's homes mix
// vendors, so a rule's trigger and condition devices ride different TCP
// sessions — a requirement for Type-III attacks, since holding one record
// holds everything behind it on the same session.
func Table3Cases() []Case {
	return []Case{
		case1(), case2(), case3(), case4(), case5(), case6(),
		case7(), case8(), case9(), case10(), case11(),
	}
}

// lateNotificationJudge treats a notification slower than threshold as the
// consequence ("late alert").
func lateNotificationJudge(threshold time.Duration) func(*CaseRun) (bool, string) {
	return func(cr *CaseRun) (bool, string) {
		lat, ok := notificationLatency(cr.Testbed)
		if !ok {
			return false, "no notification delivered"
		}
		return lat >= threshold, "notification after " + lat.Round(time.Millisecond).String()
	}
}

func case1() Case {
	return Case{
		ID: 1, Type: "state-update-delay",
		Trigger: "Front door opened", Action: "Voice notification",
		Consequence: "late burglary alerts",
		Devices:     []string{"C2"},
		Hijacks:     []string{"C2"},
		Rules: []rules.Rule{{
			Name:    "voice-alert-on-open",
			Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "open"},
			Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "front door opened"}},
		}},
		Attack: func(cr *CaseRun) error {
			h, err := cr.Hijack("C2")
			if err != nil {
				return err
			}
			h.EDelay("C2", 55*time.Second) // inside the Ring 60s window
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			if err := cr.Trigger("C2", "contact", "open"); err != nil {
				return err
			}
			cr.Run(2 * time.Minute)
			return nil
		},
		Judge: lateNotificationJudge(30 * time.Second),
	}
}

func case2() Case {
	c := case1()
	c.ID = 2
	c.Trigger = "Motion active"
	c.Action = "Mobile notification"
	c.Devices = []string{"M3"}
	c.Hijacks = []string{"M3"}
	c.Rules = []rules.Rule{{
		Name:    "motion-alert",
		Trigger: rules.Trigger{Device: "M3", Attribute: "motion", Value: "active"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "motion detected"}},
	}}
	c.Attack = func(cr *CaseRun) error {
		h, err := cr.Hijack("M3")
		if err != nil {
			return err
		}
		h.EDelay("M3", 55*time.Second)
		return nil
	}
	c.Scenario = func(cr *CaseRun) error {
		if err := cr.Trigger("M3", "motion", "active"); err != nil {
			return err
		}
		cr.Run(2 * time.Minute)
		return nil
	}
	return c
}

func case3() Case {
	return Case{
		ID: 3, Type: "action-delay",
		Trigger: "Front door closed", Action: "Lock the door",
		Consequence: "door not locked in time",
		Devices:     []string{"C2", "LK1"},
		Hijacks:     []string{"C2", "LK1"},
		Rules: []rules.Rule{{
			Name:    "lock-on-close",
			Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
			Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("LK1", "lock", "unlocked")
		},
		Attack: func(cr *CaseRun) error {
			hDoor, err := cr.Hijack("C2")
			if err != nil {
				return err
			}
			hLock, err := cr.Hijack("LK1")
			if err != nil {
				return err
			}
			// The Case 3/4 technique: stack e-Delay on the contact sensor
			// with c-Delay on the lock to pass the one-minute mark.
			core.NewActionDelay(core.ActionDelayConfig{
				TriggerHijacker: hDoor, TriggerOrigin: "C2", TriggerHold: 55 * time.Second,
				CommandHijacker: hLock, CommandOrigin: "LK1", CommandHold: 14 * time.Second,
			})
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			if err := cr.Trigger("C2", "contact", "closed"); err != nil {
				return err
			}
			cr.Run(3 * time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			at, ok := actuationAt(cr.Testbed, "LK1", "lock", "locked")
			if !ok {
				return true, "door never locked"
			}
			// The scenario starts right after Prepare+Attack settle; judge
			// by comparing against the last door-close event generation.
			var closeGen time.Duration
			for _, ev := range cr.Integration.Events() {
				if ev.Device == "C2" && ev.Value == "closed" {
					closeGen = ev.GeneratedAt
				}
			}
			delay := at - closeGen
			return delay >= time.Minute, "locked " + delay.Round(time.Millisecond).String() + " after closing"
		},
	}
}

func case4() Case {
	return Case{
		ID: 4, Type: "action-delay",
		Trigger: "Home security system armed", Action: "Turn off heater",
		Consequence: "heater not turned off (event silently discarded)",
		Devices:     []string{"K1", "P2"},
		Hijacks:     []string{"K1"},
		Integration: cloud.IntegrationConfig{
			// The Alexa behaviour found in Case 4: events delayed past 30s
			// are discarded with no notification.
			Policy:      cloud.StaleDiscardSilently,
			MaxEventAge: 30 * time.Second,
		},
		Rules: []rules.Rule{{
			Name:    "heater-off-when-armed",
			Trigger: rules.Trigger{Device: "K1", Attribute: "mode", Value: "away"},
			Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "P2", Attribute: "switch", Value: "off"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("P2", "switch", "on")
		},
		Attack: func(cr *CaseRun) error {
			h, err := cr.Hijack("K1")
			if err != nil {
				return err
			}
			h.EDelay("K1", 45*time.Second) // > 30s staleness cutoff, < 60s session window
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			if err := cr.Trigger("K1", "mode", "away"); err != nil {
				return err
			}
			cr.Run(3 * time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("P2").State("switch"); got == "on" {
				return true, "heater still on; armed event discarded"
			}
			return false, "heater turned off"
		},
	}
}

func case5() Case {
	return Case{
		ID: 5, Type: "spurious",
		Trigger: "Front door unlocked", Condition: "Entrance motion inactive",
		Action:      "Disarm security system",
		Consequence: "security system disarmed",
		Devices:     []string{"LK1", "M3", "H3"},
		Hijacks:     []string{"M3", "LK1"},
		Rules: []rules.Rule{{
			Name:      "disarm-on-unlock",
			Trigger:   rules.Trigger{Device: "LK1", Attribute: "lock", Value: "unlocked"},
			Condition: rules.Eq{Device: "M3", Attribute: "motion", Value: "inactive"},
			Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "H3", Attribute: "mode", Value: "disarmed"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("M3", "motion", "inactive")
			_ = cr.Trigger("H3", "mode", "away")
		},
		Attack: func(cr *CaseRun) error {
			hMotion, err := cr.Hijack("M3")
			if err != nil {
				return err
			}
			hLock, err := cr.Hijack("LK1")
			if err != nil {
				return err
			}
			core.SpuriousExecution(hMotion, "M3", hLock, "LK1", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			// Motion at the entrance (would falsify the condition)...
			if err := cr.Trigger("M3", "motion", "active"); err != nil {
				return err
			}
			cr.Run(3 * time.Second)
			// ...then the door is unlocked.
			if err := cr.Trigger("LK1", "lock", "unlocked"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("H3").State("mode"); got == "disarmed" {
				return true, "security disarmed despite motion"
			}
			return false, "security stayed armed"
		},
	}
}

func case6() Case {
	return Case{
		ID: 6, Type: "spurious",
		Trigger: "Bedroom motion active", Condition: "Bedroom door closed",
		Action:      "Turn on bedroom heater",
		Consequence: "heater maliciously turned on",
		Devices:     []string{"M1", "C5", "P2"},
		Hijacks:     []string{"C5", "M1"},
		Rules: []rules.Rule{{
			Name:      "heater-on-motion",
			Trigger:   rules.Trigger{Device: "M1", Attribute: "motion", Value: "active"},
			Condition: rules.Eq{Device: "C5", Attribute: "contact", Value: "closed"},
			Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "P2", Attribute: "switch", Value: "on"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("C5", "contact", "closed")
			_ = cr.Trigger("P2", "switch", "off")
		},
		Attack: func(cr *CaseRun) error {
			hDoor, err := cr.Hijack("C5")
			if err != nil {
				return err
			}
			hMotion, err := cr.Hijack("M1")
			if err != nil {
				return err
			}
			core.SpuriousExecution(hDoor, "C5", hMotion, "M1", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			if err := cr.Trigger("C5", "contact", "open"); err != nil {
				return err
			}
			cr.Run(3 * time.Second)
			if err := cr.Trigger("M1", "motion", "active"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("P2").State("switch"); got == "on" {
				return true, "heater on despite open door"
			}
			return false, "heater stayed off"
		},
	}
}

func case7() Case {
	c := case6()
	c.ID = 7
	c.Trigger = "Study motion active"
	c.Condition = "Study door closed"
	c.Action = "Open the study window"
	c.Consequence = "window maliciously opened"
	c.Devices = []string{"M4", "C5", "V1"}
	c.Hijacks = []string{"C5", "M4"}
	c.Rules = []rules.Rule{{
		Name:      "vent-study",
		Trigger:   rules.Trigger{Device: "M4", Attribute: "motion", Value: "active"},
		Condition: rules.Eq{Device: "C5", Attribute: "contact", Value: "closed"},
		Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "V1", Attribute: "valve", Value: "open"}},
	}}
	c.Prepare = func(cr *CaseRun) {
		_ = cr.Trigger("C5", "contact", "closed")
		_ = cr.Trigger("V1", "valve", "closed")
	}
	c.Attack = func(cr *CaseRun) error {
		hDoor, err := cr.Hijack("C5")
		if err != nil {
			return err
		}
		hMotion, err := cr.Hijack("M4")
		if err != nil {
			return err
		}
		core.SpuriousExecution(hDoor, "C5", hMotion, "M4", 5*time.Second)
		return nil
	}
	c.Scenario = func(cr *CaseRun) error {
		if err := cr.Trigger("C5", "contact", "open"); err != nil {
			return err
		}
		cr.Run(3 * time.Second)
		if err := cr.Trigger("M4", "motion", "active"); err != nil {
			return err
		}
		cr.Run(time.Minute)
		return nil
	}
	c.Judge = func(cr *CaseRun) (bool, string) {
		if got := cr.Device("V1").State("valve"); got == "open" {
			return true, "window opened despite open door"
		}
		return false, "window stayed closed"
	}
	return c
}

func case8() Case {
	return Case{
		ID: 8, Type: "spurious",
		Trigger: "Storm door opened", Condition: "Presence on",
		Action:      "Unlock the interior door",
		Consequence: "door maliciously unlocked",
		Devices:     []string{"C5", "P1", "LK1"},
		Hijacks:     []string{"P1", "C5"},
		Rules: []rules.Rule{{
			Name:      "unlock-when-home",
			Trigger:   rules.Trigger{Device: "C5", Attribute: "contact", Value: "open"},
			Condition: rules.Eq{Device: "P1", Attribute: "presence", Value: "present"},
			Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "unlocked"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("P1", "presence", "present")
			_ = cr.Trigger("LK1", "lock", "locked")
		},
		Attack: func(cr *CaseRun) error {
			hPresence, err := cr.Hijack("P1")
			if err != nil {
				return err
			}
			hStorm, err := cr.Hijack("C5")
			if err != nil {
				return err
			}
			core.SpuriousExecution(hPresence, "P1", hStorm, "C5", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			// The user leaves...
			if err := cr.Trigger("P1", "presence", "away"); err != nil {
				return err
			}
			cr.Run(10 * time.Second)
			// ...the burglar pulls the storm door within the 40s window.
			if err := cr.Trigger("C5", "contact", "open"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("LK1").State("lock"); got == "unlocked" {
				return true, "interior door unlocked with nobody home"
			}
			return false, "door stayed locked"
		},
	}
}

func case9() Case {
	return Case{
		ID: 9, Type: "disabled",
		Trigger: "Presence away", Condition: "Front door open",
		Action:      "Send text message",
		Consequence: "door-open notification muted",
		Devices:     []string{"P1", "C2"},
		Hijacks:     []string{"C2", "P1"},
		Rules: []rules.Rule{{
			Name:      "warn-door-open-when-leaving",
			Trigger:   rules.Trigger{Device: "P1", Attribute: "presence", Value: "away"},
			Condition: rules.Eq{Device: "C2", Attribute: "contact", Value: "open"},
			Actions:   []rules.Action{{Kind: rules.ActionNotify, Message: "you left the front door open!"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("P1", "presence", "present")
			_ = cr.Trigger("C2", "contact", "closed")
		},
		Attack: func(cr *CaseRun) error {
			hDoor, err := cr.Hijack("C2")
			if err != nil {
				return err
			}
			hPresence, err := cr.Hijack("P1")
			if err != nil {
				return err
			}
			core.DisabledExecution(hDoor, "C2", hPresence, "P1", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			// The door is opened (and forgotten)...
			if err := cr.Trigger("C2", "contact", "open"); err != nil {
				return err
			}
			cr.Run(5 * time.Second)
			// ...and the user leaves.
			if err := cr.Trigger("P1", "presence", "away"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if len(cr.Integration.Notifications()) == 0 {
				return true, "no warning delivered"
			}
			return false, "warning delivered"
		},
	}
}

func case10() Case {
	return Case{
		ID: 10, Type: "disabled",
		Trigger: "Presence away", Condition: "Front door unlocked",
		Action:      "Lock the front door",
		Consequence: "door not locked",
		Devices:     []string{"P1", "LK1"},
		Hijacks:     []string{"LK1", "P1"},
		Rules: []rules.Rule{{
			Name:      "lock-when-leaving",
			Trigger:   rules.Trigger{Device: "P1", Attribute: "presence", Value: "away"},
			Condition: rules.Eq{Device: "LK1", Attribute: "lock", Value: "unlocked"},
			Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("P1", "presence", "present")
			_ = cr.Trigger("LK1", "lock", "locked")
		},
		Attack: func(cr *CaseRun) error {
			hLock, err := cr.Hijack("LK1")
			if err != nil {
				return err
			}
			hPresence, err := cr.Hijack("P1")
			if err != nil {
				return err
			}
			core.DisabledExecution(hLock, "LK1", hPresence, "P1", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			// Leaving home: unlock, walk out, depart.
			if err := cr.Trigger("LK1", "lock", "unlocked"); err != nil {
				return err
			}
			cr.Run(5 * time.Second)
			if err := cr.Trigger("P1", "presence", "away"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("LK1").State("lock"); got == "unlocked" {
				return true, "door left unlocked all day"
			}
			return false, "door locked automatically"
		},
	}
}

func case11() Case {
	return Case{
		ID: 11, Type: "disabled",
		Trigger: "Presence away", Condition: "Heater is on",
		Action:      "Turn off heater",
		Consequence: "heater not turned off",
		Devices:     []string{"P1", "T1"},
		Hijacks:     []string{"T1", "P1"},
		Rules: []rules.Rule{{
			Name:      "heater-off-when-leaving",
			Trigger:   rules.Trigger{Device: "P1", Attribute: "presence", Value: "away"},
			Condition: rules.Eq{Device: "T1", Attribute: "heating", Value: "on"},
			Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "T1", Attribute: "heating", Value: "off"}},
		}},
		Prepare: func(cr *CaseRun) {
			_ = cr.Trigger("P1", "presence", "present")
			_ = cr.Trigger("T1", "heating", "off")
		},
		Attack: func(cr *CaseRun) error {
			hHeater, err := cr.Hijack("T1")
			if err != nil {
				return err
			}
			hPresence, err := cr.Hijack("P1")
			if err != nil {
				return err
			}
			core.DisabledExecution(hHeater, "T1", hPresence, "P1", 5*time.Second)
			return nil
		},
		Scenario: func(cr *CaseRun) error {
			if err := cr.Trigger("T1", "heating", "on"); err != nil {
				return err
			}
			cr.Run(5 * time.Second)
			if err := cr.Trigger("P1", "presence", "away"); err != nil {
				return err
			}
			cr.Run(time.Minute)
			return nil
		},
		Judge: func(cr *CaseRun) (bool, string) {
			if got := cr.Device("T1").State("heating"); got == "on" {
				return true, "heater left running"
			}
			return false, "heater turned off"
		},
	}
}
