package arp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestForgedReplyWireBytes pins what the pre-encoded forged reply puts on
// the medium: on every tick, one frame per entry carrying exactly the
// bytes a freshly marshalled forged reply would.
func TestForgedReplyWireBytes(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	// Forged replies seen since the last tick, by destination.
	forged := make(map[netsim.MAC][][]byte)
	e.seg.AddTap(func(f netsim.Frame) {
		if f.Type == netsim.EtherTypeARP && f.Src == attacker.nic.MAC() {
			p, err := Unmarshal(f.Payload)
			if err == nil && p.Op == OpReply && p.SenderMAC == attacker.nic.MAC() {
				forged[f.Dst] = append(forged[f.Dst], append([]byte(nil), f.Payload...))
			}
		}
	})

	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self(), nil)
	sp.Poison(gw.client.Self(), victim.client.Self(), nil)
	e.clk.RunFor(500 * time.Millisecond) // resolutions and the first sends
	clear(forged)

	want := map[netsim.MAC][]byte{
		victim.nic.MAC(): Packet{OpReply, attacker.nic.MAC(), gw.client.Self(), victim.nic.MAC(), victim.client.Self()}.Marshal(),
		gw.nic.MAC():     Packet{OpReply, attacker.nic.MAC(), victim.client.Self(), gw.nic.MAC(), gw.client.Self()}.Marshal(),
	}
	const ticks = 5
	for tick := 0; tick < ticks; tick++ {
		e.clk.RunFor(time.Second)
		if len(forged) != len(want) {
			t.Fatalf("tick %d: forged replies to %d destinations, want %d", tick, len(forged), len(want))
		}
		for dst, w := range want {
			got := forged[dst]
			if len(got) != 1 || !bytes.Equal(got[0], w) {
				t.Fatalf("tick %d to %v: wire %x, want one frame % x", tick, dst, got, w)
			}
		}
		clear(forged)
	}
	sp.Stop()
}

// TestPoisonHealRepoisonFlipsCache guards the unchanged-binding shortcut
// in HandleFrame: every real change of binding — poison, heal by Restore,
// poison again, heal by announcement, re-poison by a tick — must still
// land in the victim's cache.
func TestPoisonHealRepoisonFlipsCache(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")
	cached := func() netsim.MAC {
		m, _ := victim.client.Lookup(gw.client.Self())
		return m
	}

	for round := 0; round < 3; round++ {
		sp := NewSpoofer(e.clk, attacker.client, time.Second)
		sp.Start()
		sp.Poison(victim.client.Self(), gw.client.Self(), nil)
		e.clk.RunFor(500 * time.Millisecond)
		if cached() != attacker.nic.MAC() {
			t.Fatalf("round %d: poison did not flip the cache to the attacker", round)
		}
		gw.client.Announce()
		e.clk.RunFor(10 * time.Millisecond)
		if cached() != gw.nic.MAC() {
			t.Fatalf("round %d: announcement did not heal the cache", round)
		}
		e.clk.RunFor(time.Second)
		if cached() != attacker.nic.MAC() {
			t.Fatalf("round %d: re-poison tick did not flip the cache back", round)
		}
		sp.Restore()
		e.clk.RunFor(10 * time.Millisecond)
		if cached() != gw.nic.MAC() {
			t.Fatalf("round %d: restore did not heal the cache", round)
		}
	}
}

// TestSpoofedLANConservesFrames checks netsim's conservation law on a
// poisoned LAN once the clock drains: every frame put on the medium was
// either delivered or dropped for a counted reason.
func TestSpoofedLANConservesFrames(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	sp := NewSpoofer(e.clk, attacker.client, 250*time.Millisecond)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self(), nil)
	sp.Poison(gw.client.Self(), victim.client.Self(), nil)
	e.clk.RunFor(10 * time.Second)
	gw.client.Announce()
	// A unicast frame nobody on the LAN owns: a no-receiver drop.
	victim.nic.Send(netsim.Frame{Dst: netsim.MAC{0x02, 0xee}, Type: netsim.EtherTypeARP})
	e.clk.RunFor(2 * time.Second)
	sp.Restore()
	e.clk.Run()

	st := e.seg.Stats()
	if st.FramesSent == 0 || st.FramesDropped() == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if st.FramesSent != st.FramesDelivered+st.FramesDropped() {
		t.Fatalf("frames sent %d != delivered %d + dropped %d", st.FramesSent, st.FramesDelivered, st.FramesDropped())
	}
}

// newRepoisonBench sets up a two-entry spoofer poisoning a victim and its
// gateway against each other, past resolution and the first sends, with
// the next tick one period away.
func newRepoisonBench() *testEnv {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")
	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self(), nil)
	sp.Poison(gw.client.Self(), victim.client.Self(), nil)
	e.clk.RunFor(time.Second)
	return e
}

// A poisoned hold is mostly re-poison ticks, so one tick — both forged
// sends and their deliveries to caches that already hold the lie — must
// not allocate.
func TestRepoisonTickAllocFree(t *testing.T) {
	e := newRepoisonBench()
	if n := testing.AllocsPerRun(100, func() { e.clk.RunFor(time.Second) }); n != 0 {
		t.Fatalf("re-poison tick allocates %.1f per op, want 0", n)
	}
}

// BenchmarkRepoisonTick times one re-poison tick of a two-entry spoofer
// plus its deliveries.
func BenchmarkRepoisonTick(b *testing.B) {
	e := newRepoisonBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.clk.RunFor(time.Second)
	}
}
