package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

func TestCloudHomeEndToEnd(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Seed:    1,
		Devices: []string{"C2", "LK1", "P2", "M7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hubs pulled in automatically.
	if tb.Device("H3") == nil || tb.Device("H5") == nil {
		t.Fatal("hubs for C2/LK1 not auto-created")
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "lock-on-close",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
		Actions: []rules.Action{
			{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"},
			{Kind: rules.ActionNotify, Message: "door closed; locking"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if !tb.Device("H3").Connected() || !tb.Device("P2").Connected() {
		t.Fatal("devices did not connect")
	}

	// Physical occurrence: the Ring contact sensor closes.
	if err := tb.Device("C2").TriggerEvent("contact", "closed"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)

	// The event reached the integration server...
	evs := tb.Integration.Events()
	found := false
	for _, ev := range evs {
		if ev.Device == "C2" && ev.Value == "closed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("C2 event not ingested: %v", evs)
	}
	// ...the rule fired a notification...
	if n := tb.Integration.Notifications(); len(n) != 1 || n[0].Message != "door closed; locking" {
		t.Fatalf("notifications = %v", n)
	}
	// ...and the command actuated the August lock via its bridge.
	if got := tb.Device("LK1").State("lock"); got != "locked" {
		t.Fatalf("lock state = %q, want locked", got)
	}
	cmds := tb.Integration.Commands()
	if len(cmds) != 1 || cmds[0].Outcome == nil || !cmds[0].Outcome.Acked {
		t.Fatalf("commands = %+v", cmds)
	}
	// Nothing anomalous happened.
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d, want 0", tb.TotalAlarmCount())
	}
}

func TestOnDemandDeviceEventFlow(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 2, Devices: []string{"M7"}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Device("M7").TriggerEvent("motion", "active"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 || evs[0].Device != "M7" || evs[0].Value != "active" {
		t.Fatalf("events = %v", evs)
	}
}

func TestLocalHomeEndToEnd(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Seed:    3,
		Devices: []string{"A1", "A6"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.LocalHub == nil {
		t.Fatal("local hub not created for HAP devices")
	}
	if err := tb.LocalHub.AddRule(rules.Rule{
		Name:    "light-on-open",
		Trigger: rules.Trigger{Device: "A1", Attribute: "contact", Value: "open"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "A6", Attribute: "switch", Value: "on"}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if !tb.Device("A1").Connected() || !tb.Device("A6").Connected() {
		t.Fatal("accessories did not pair")
	}
	if err := tb.Device("A1").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if got := tb.Device("A6").State("switch"); got != "on" {
		t.Fatalf("bulb state = %q, want on", got)
	}
	if len(tb.LocalHub.Alarms()) != 0 {
		t.Fatalf("alarms = %v", tb.LocalHub.Alarms())
	}
}

func TestFullCatalogDeploys(t *testing.T) {
	var labels []string
	for _, p := range catalogLabels() {
		labels = append(labels, p)
	}
	tb, err := NewTestbed(TestbedConfig{Seed: 4, Devices: labels})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.Clock.RunFor(10 * time.Second)
	down := 0
	for label, d := range tb.Devices {
		if !d.Connected() {
			t.Errorf("device %s not connected", label)
			down++
		}
	}
	if down > 0 {
		t.Fatalf("%d devices down", down)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms during steady state: %d", tb.TotalAlarmCount())
	}
	// Run half an hour of idle time: keep-alives must hold every session up.
	tb.Clock.RunFor(30 * time.Minute)
	for label, d := range tb.Devices {
		if !d.Connected() {
			t.Errorf("device %s dropped during idle period", label)
		}
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms during idle period: %d", tb.TotalAlarmCount())
	}
}

func TestStaleDiscardPolicy(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Seed:    5,
		Devices: []string{"C2"},
		Integration: cloud.IntegrationConfig{
			Policy:      cloud.StaleDiscardSilently,
			MaxEventAge: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if len(tb.Integration.Events()) != 1 {
		t.Fatal("fresh event should be accepted")
	}
	if len(tb.Integration.Discarded()) != 0 {
		t.Fatal("fresh event wrongly discarded")
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	if _, err := NewTestbed(TestbedConfig{Devices: []string{"NOPE"}}); err == nil {
		t.Fatal("unknown label should fail")
	}
}

func TestOverridesLeaveSharedCatalogUntouched(t *testing.T) {
	before := make(map[string]device.Profile, len(device.Index()))
	for l, p := range device.Index() {
		before[l] = p
	}
	c2 := device.Index()["C2"]
	c2.EventTimeout = 3 * time.Minute
	c2.EventValues = []string{"ajar"}
	h3 := device.Index()["H3"]
	h3.KeepAlivePeriod = 7 * time.Second
	tb, err := NewTestbed(TestbedConfig{
		Seed:      6,
		Devices:   []string{"C2", "P2"},
		Overrides: []device.Profile{c2, h3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if !reflect.DeepEqual(device.Index(), before) {
		t.Fatal("NewTestbed wrote to the shared catalog index")
	}
	for _, tc := range []struct {
		label string
		want  device.Profile
	}{
		{"C2", c2},
		{"H3", h3},
		{"P2", before["P2"]},
		{"A1", before["A1"]},
	} {
		if got := tb.Profile(tc.label); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Profile(%s) = %+v, want %+v", tc.label, got, tc.want)
		}
	}
	for _, tc := range []struct {
		label string
		want  device.Profile
	}{
		{"C2", h3},
		{"LK1", before["H5"]},
		{"P2", before["P2"]},
	} {
		if got, err := tb.sessionProfile(tb.Profile(tc.label)); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sessionProfile(%s) = %+v, %v; want %+v", tc.label, got, err, tc.want)
		}
	}
}

// TestEndpointIdleTimeoutFollowsOverrides checks that an on-demand
// vendor's session reaper runs at the longest ServerIdleTimeout among the
// catalog profiles of its domain, overrides applied: an idle connection to
// the endpoint is closed by the server after exactly that long.
func TestEndpointIdleTimeoutFollowsOverrides(t *testing.T) {
	withIdle := func(label string, d time.Duration) device.Profile {
		p := device.Index()[label]
		p.ServerIdleTimeout = d
		return p
	}
	for _, tc := range []struct {
		name      string
		overrides []device.Profile
		want      time.Duration
	}{
		{"catalog", nil, 5 * time.Minute},
		{"raised", []device.Profile{withIdle("M7", 20*time.Minute)}, 20 * time.Minute},
		// C5 shares tuya.com and keeps its catalog 5 min, so lowering M7
		// (not even deployed) leaves the domain's reaper where it was.
		{"lowered", []device.Profile{withIdle("M7", time.Minute)}, 5 * time.Minute},
		{"undeployed", []device.Profile{withIdle("C5", 9*time.Minute)}, 9 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Seed: 8, Devices: []string{"M7"}, Overrides: tc.overrides})
			if err != nil {
				t.Fatal(err)
			}
			tb.Start()
			atk, err := tb.NewAttacker()
			if err != nil {
				t.Fatal(err)
			}
			opened := tb.Clock.Now()
			conn := atk.TCP.Dial(tcpsim.Endpoint{Addr: tb.ServerAddrs["tuya.com"], Port: cloud.HTTPSPort})
			var closedAt simtime.Time
			conn.OnClose = func(error) { closedAt = tb.Clock.Now() }
			tb.Clock.RunFor(tc.want - time.Second)
			if closedAt != 0 {
				t.Fatalf("idle connection closed after %v, want %v", closedAt-opened, tc.want)
			}
			tb.Clock.RunFor(2 * time.Second)
			if closedAt == 0 {
				t.Fatalf("idle connection still open after %v", tb.Clock.Now()-opened)
			}
		})
	}
}

func catalogLabels() []string {
	return []string{
		"H1", "H2", "H3", "H4", "H5",
		"C1", "M1", "P1", "S1", "L2", "S2", "M2", "C2", "M3", "K1", "C3", "M4", "LK1",
		"CM1", "CM2", "CM3", "P2", "P3", "P4", "L1", "L3", "K2", "T1", "SD1", "V1",
		"M7", "C5", "W1",
		"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14", "A15", "A16", "A17",
	}
}
