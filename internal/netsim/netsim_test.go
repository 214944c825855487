package netsim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func newTestNet(t testing.TB) (*simtime.Clock, *Network, *Segment) {
	t.Helper()
	clk := simtime.NewClock()
	net := NewNetwork(clk, 1)
	seg := net.NewSegment("lan", time.Millisecond, 0)
	return clk, net, seg
}

func TestUnicastDelivery(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	var got []byte
	b.SetHandler(func(_ *NIC, f Frame) { got = f.Payload })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4, Payload: []byte("hi")})
	clk.Run()
	if string(got) != "hi" {
		t.Fatalf("payload = %q, want hi", got)
	}
}

func TestUnicastNotDeliveredToOthers(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	c := net.NewHost("c").AttachNIC(seg)
	bGot, cGot := 0, 0
	b.SetHandler(func(_ *NIC, f Frame) { bGot++ })
	c.SetHandler(func(_ *NIC, f Frame) { cGot++ })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if bGot != 1 || cGot != 0 {
		t.Fatalf("b=%d c=%d, want 1,0", bGot, cGot)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	c := net.NewHost("c").AttachNIC(seg)
	bGot, cGot, aGot := 0, 0, 0
	a.SetHandler(func(_ *NIC, f Frame) { aGot++ })
	b.SetHandler(func(_ *NIC, f Frame) { bGot++ })
	c.SetHandler(func(_ *NIC, f Frame) { cGot++ })
	a.Send(Frame{Dst: BroadcastMAC, Type: EtherTypeARP})
	clk.Run()
	if bGot != 1 || cGot != 1 {
		t.Fatalf("b=%d c=%d, want 1,1", bGot, cGot)
	}
	if aGot != 0 {
		t.Fatal("sender should not receive its own broadcast")
	}
}

func TestPromiscuousSeesUnicast(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	sniffer := net.NewHost("attacker").AttachNIC(seg)
	sniffed := 0
	sniffer.SetPromiscuous(true)
	sniffer.SetHandler(func(_ *NIC, f Frame) { sniffed++ })
	b.SetHandler(func(_ *NIC, f Frame) {})
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if sniffed != 1 {
		t.Fatalf("promiscuous NIC saw %d frames, want 1", sniffed)
	}
}

func TestTapSeesEverything(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	b.SetHandler(func(_ *NIC, f Frame) {})
	var taps int
	seg.AddTap(func(f Frame) { taps++ })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	a.Send(Frame{Dst: BroadcastMAC, Type: EtherTypeARP})
	clk.Run()
	if taps != 2 {
		t.Fatalf("tap saw %d frames, want 2", taps)
	}
}

func TestLatencyApplied(t *testing.T) {
	clk := simtime.NewClock()
	net := NewNetwork(clk, 1)
	seg := net.NewSegment("lan", 5*time.Millisecond, 0)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	var at simtime.Time
	b.SetHandler(func(_ *NIC, f Frame) { at = clk.Now() })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", at)
	}
}

func TestJitterBounded(t *testing.T) {
	clk := simtime.NewClock()
	net := NewNetwork(clk, 42)
	seg := net.NewSegment("lan", 10*time.Millisecond, 0.5)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	var times []simtime.Time
	b.SetHandler(func(_ *NIC, f Frame) { times = append(times, clk.Now()) })
	for i := 0; i < 100; i++ {
		a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	}
	clk.Run()
	for _, at := range times {
		if at < 5*time.Millisecond || at > 15*time.Millisecond {
			t.Fatalf("jittered delivery at %v outside [5ms,15ms]", at)
		}
	}
}

func TestSpoofedSourcePreserved(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	fake := MAC{0x02, 0x00, 0xde, 0xad, 0xbe, 0xef}
	var gotSrc MAC
	b.SetHandler(func(_ *NIC, f Frame) { gotSrc = f.Src })
	a.Send(Frame{Src: fake, Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if gotSrc != fake {
		t.Fatalf("src = %v, want spoofed %v", gotSrc, fake)
	}
}

func TestZeroSourceStamped(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	var gotSrc MAC
	b.SetHandler(func(_ *NIC, f Frame) { gotSrc = f.Src })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if gotSrc != a.MAC() {
		t.Fatalf("src = %v, want NIC MAC %v", gotSrc, a.MAC())
	}
}

func TestPayloadCopiedAtBoundary(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	var got []byte
	b.SetHandler(func(_ *NIC, f Frame) { got = f.Payload })
	p := []byte("original")
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4, Payload: p})
	copy(p, "mutated!")
	clk.Run()
	if string(got) != "original" {
		t.Fatalf("payload = %q, sender mutation leaked", got)
	}
}

func TestDownNICDropsTraffic(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	got := 0
	b.SetHandler(func(_ *NIC, f Frame) { got++ })
	b.SetDown(true)
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if got != 0 {
		t.Fatal("down NIC received a frame")
	}
	// The suppressed reception is counted, on the NIC and the segment.
	if b.Stats().DropsIfaceDown != 1 {
		t.Fatalf("rx-down drop = %d, want 1", b.Stats().DropsIfaceDown)
	}
	if seg.Stats().DropsIfaceDown != 1 || seg.Stats().DropsNoReceiver != 0 {
		t.Fatalf("segment drop split = %+v, want one iface_down drop", seg.Stats())
	}
	b.SetDown(false)
	a.SetDown(true)
	sentBefore := seg.Stats().FramesSent
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if got != 0 {
		t.Fatal("down NIC transmitted a frame")
	}
	// The refused transmission is counted on the NIC and never enters the
	// segment's sent accounting.
	if a.Stats().DropsIfaceDown != 1 {
		t.Fatalf("tx-down drop = %d, want 1", a.Stats().DropsIfaceDown)
	}
	if seg.Stats().FramesSent != sentBefore {
		t.Fatalf("refused tx leaked into segment FramesSent")
	}
}

func TestStatsCounters(t *testing.T) {
	clk, net, seg := newTestNet(t)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	b.SetHandler(func(_ *NIC, f Frame) {})
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4, Payload: make([]byte, 100)})
	a.Send(Frame{Dst: MAC{0x02, 0, 0, 0, 0, 0x99}, Type: EtherTypeIPv4}) // nobody
	clk.Run()
	st := seg.Stats()
	if st.FramesSent != 2 {
		t.Fatalf("FramesSent = %d, want 2", st.FramesSent)
	}
	if st.FramesDelivered != 1 || st.FramesDropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 1,1", st.FramesDelivered, st.FramesDropped())
	}
	if st.DropsNoReceiver != 1 || st.DropsLoss != 0 || st.DropsIfaceDown != 0 {
		t.Fatalf("drop split = %+v, want exactly one no_receiver drop", st)
	}
	if st.BytesSent != uint64(14+100+14) {
		t.Fatalf("BytesSent = %d, want %d", st.BytesSent, 14+100+14)
	}
	if a.Stats().FramesSent != 2 {
		t.Fatalf("NIC FramesSent = %d, want 2", a.Stats().FramesSent)
	}
}

func TestDuplicateHostNamePanics(t *testing.T) {
	_, net, _ := newTestNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate host name")
		}
	}()
	net.NewHost("a")
	net.NewHost("a")
}

func TestHostLookup(t *testing.T) {
	_, net, _ := newTestNet(t)
	h := net.NewHost("router")
	if net.Host("router") != h {
		t.Fatal("Host lookup failed")
	}
	if net.Host("nope") != nil {
		t.Fatal("unknown host should be nil")
	}
}

func TestUniqueMACs(t *testing.T) {
	_, net, seg := newTestNet(t)
	seen := make(map[MAC]bool)
	for i := 0; i < 50; i++ {
		nic := net.NewHost(string(rune('A' + i))).AttachNIC(seg)
		if seen[nic.MAC()] {
			t.Fatalf("duplicate MAC %v", nic.MAC())
		}
		seen[nic.MAC()] = true
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	if m.String() != "02:00:00:00:00:01" {
		t.Fatalf("String() = %q", m.String())
	}
	if !BroadcastMAC.IsBroadcast() {
		t.Fatal("BroadcastMAC.IsBroadcast() = false")
	}
	if !(MAC{}).IsZero() {
		t.Fatal("zero MAC not detected")
	}
}

func TestLossRateDropsFrames(t *testing.T) {
	clk := simtime.NewClock()
	net := NewNetwork(clk, 7)
	seg := net.NewSegment("lossy", time.Millisecond, 0)
	seg.SetLossRate(0.5)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	got := 0
	b.SetHandler(func(_ *NIC, f Frame) { got++ })
	const n = 1000
	for i := 0; i < n; i++ {
		a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	}
	clk.Run()
	if got < 400 || got > 600 {
		t.Fatalf("delivered %d/%d at 50%% loss, want about half", got, n)
	}
	if int(seg.Stats().DropsLoss) != n-got {
		t.Fatalf("loss-drop stat = %d, want %d", seg.Stats().DropsLoss, n-got)
	}
	if seg.Stats().FramesDropped() != seg.Stats().DropsLoss {
		t.Fatalf("loss should be the only drop cause: %+v", seg.Stats())
	}
}

func TestLossRateClamped(t *testing.T) {
	clk := simtime.NewClock()
	net := NewNetwork(clk, 7)
	seg := net.NewSegment("l", 0, 0)
	seg.SetLossRate(-1)
	a := net.NewHost("a").AttachNIC(seg)
	b := net.NewHost("b").AttachNIC(seg)
	got := 0
	b.SetHandler(func(_ *NIC, f Frame) { got++ })
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if got != 1 {
		t.Fatal("negative loss rate should clamp to 0")
	}
	seg.SetLossRate(2)
	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	clk.Run()
	if got != 1 {
		t.Fatal("loss rate above 1 should clamp to always-drop")
	}
}

// BenchmarkSegmentDeliver times one unicast frame across a segment: the
// send-side payload copy into a pooled delivery, the delivery timer, and
// the hand-off to a tap and the receiving NIC. Steady state allocates
// nothing.
func BenchmarkSegmentDeliver(b *testing.B) {
	clk, net, seg := newTestNet(b)
	a := net.NewHost("a").AttachNIC(seg)
	dst := net.NewHost("b").AttachNIC(seg)
	net.NewHost("c").AttachNIC(seg).SetHandler(func(*NIC, Frame) {})
	var got int
	dst.SetHandler(func(_ *NIC, f Frame) { got += len(f.Payload) })
	seg.AddTap(func(Frame) {})
	f := Frame{Dst: dst.MAC(), Type: EtherTypeIPv4, Payload: make([]byte, 60)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(f)
		clk.Run()
	}
	if got != 60*b.N {
		b.Fatalf("delivered %d payload bytes, want %d", got, 60*b.N)
	}
}
