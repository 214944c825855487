package cloud

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/simtime"
)

// newBareEndpoint builds an endpoint with no devices attached, so events
// can be fed straight into its acceptance policy.
func newBareEndpoint(t *testing.T) (*EndpointServer, *simtime.Clock, *[]rules.Event) {
	t.Helper()
	clk := simtime.NewClock()
	net := netsim.NewNetwork(clk, 1)
	ip := ipnet.NewStack(clk, net.NewHost("vendor"))
	ip.MustAddIface(net.NewSegment("wan", time.Millisecond, 0), "100.64.0.10/16")
	ep, err := NewEndpointServer(clk, ip, simtime.NewRand(1), EndpointConfig{Domain: "vendor.example"})
	if err != nil {
		t.Fatal(err)
	}
	var got []rules.Event
	ep.OnEvent = func(ev rules.Event) { got = append(got, ev) }
	return ep, clk, &got
}

func event(dev string, i int) rules.Event {
	return rules.Event{Device: dev, Attribute: "contact", Value: "open", GeneratedAt: simtime.Time(i) * time.Second}
}

func TestCloudDedupDropsExactReplayUntilEvicted(t *testing.T) {
	ep, clk, got := newBareEndpoint(t)
	ep.RegisterDevice(device.Profile{Label: "D", CloudDedup: true}, "D")
	accepted := func(ev rules.Event) bool {
		n := len(*got)
		ep.accept(ev)
		clk.RunFor(time.Second)
		return len(*got) == n+1
	}

	first := event("D", 0)
	if !accepted(first) {
		t.Fatal("first event dropped")
	}
	if accepted(first) {
		t.Fatal("exact replay accepted")
	}
	for _, changed := range []rules.Event{
		{Device: "D", Attribute: "motion", Value: "open", GeneratedAt: 0},
		{Device: "D", Attribute: "contact", Value: "closed", GeneratedAt: 0},
		{Device: "D", Attribute: "contact", Value: "open", GeneratedAt: time.Millisecond},
	} {
		if !accepted(changed) {
			t.Fatalf("distinct event %+v dropped", changed)
		}
	}
	// Three distinct keys are already remembered after the first; 124 more
	// fill the 128-entry ring with first still its oldest entry.
	for i := 1; i <= dedupRingSize-4; i++ {
		if !accepted(event("D", i)) {
			t.Fatalf("distinct event %d dropped", i)
		}
	}
	if accepted(first) {
		t.Fatal("replay accepted while its key is still in the ring")
	}
	if !accepted(event("D", dedupRingSize)) {
		t.Fatal("distinct event dropped")
	}
	if !accepted(first) {
		t.Fatal("replay still dropped after 128 newer accepted events evicted its key")
	}
}

func TestNonDedupProfileForwardsDuplicates(t *testing.T) {
	ep, clk, got := newBareEndpoint(t)
	ep.RegisterDevice(device.Profile{Label: "N"}, "N")
	for i := 0; i < 3; i++ {
		ep.accept(event("N", 7))
	}
	clk.RunFor(time.Second)
	if len(*got) != 3 {
		t.Fatalf("forwarded %d of 3 identical events, want all", len(*got))
	}
}
