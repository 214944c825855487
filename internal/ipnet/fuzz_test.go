package ipnet

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// FuzzUnmarshal: arbitrary bytes must never panic the packet decoder, a
// rejected buffer must really be short, and an accepted one must
// re-encode to exactly the bytes it was decoded from. The corpus is
// seeded with the IPv4 frames of TestLANDelivery's exchange.
func FuzzUnmarshal(f *testing.F) {
	for _, b := range lanDeliveryFrames(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			if len(b) >= headerLen && len(b) >= headerLen+(int(b[10])<<8|int(b[11])) {
				t.Fatalf("rejected a complete %d-byte packet: %v", len(b), err)
			}
			return
		}
		enc := p.Marshal()
		if !bytes.Equal(enc, b[:p.Len()]) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", b[:p.Len()], enc)
		}
		q, err := Unmarshal(enc)
		if err != nil || q.Src != p.Src || q.Dst != p.Dst || q.Proto != p.Proto || q.TTL != p.TTL ||
			!bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("round trip failed: %v -> %v (%v)", p, q, err)
		}
	})
}

// lanDeliveryFrames runs TestLANDelivery's exchange and returns the
// payload of every IPv4 frame put on the segment.
func lanDeliveryFrames(tb testing.TB) [][]byte {
	e := newLANEnv()
	var frames [][]byte
	e.seg.AddTap(func(f netsim.Frame) {
		if f.Type == netsim.EtherTypeIPv4 {
			frames = append(frames, append([]byte(nil), f.Payload...))
		}
	})
	if err := e.a.Send(Packet{Dst: e.b.Addr(), Proto: ProtoTCP, Payload: []byte("hello")}); err != nil {
		tb.Fatal(err)
	}
	e.clk.Run()
	if len(frames) == 0 {
		tb.Fatal("no IPv4 frames captured")
	}
	return frames
}
