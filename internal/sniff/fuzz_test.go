package sniff_test

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
)

// FuzzHandleFrame feeds arbitrary frame sequences to a capture, with and
// without a record log, and requires that it never panics and that every
// logged record is consistent: retained bytes are a whole record, carry
// the logged type and length, fit the per-flow budget, and survive the
// input buffer being overwritten. The input is a sequence of frames, each
// a 2-byte big-endian length and that many payload bytes; the corpus is
// seeded with the WiFi frames of TestCaptureSeesHandshakeAndRecords.
func FuzzHandleFrame(f *testing.F) {
	seed := encodeFrames(capturedFrames(f))
	for _, budget := range []int16{-1, 0, 4096} {
		f.Add(seed, budget)
	}
	f.Add([]byte{}, int16(64))
	f.Fuzz(func(t *testing.T, data []byte, budget int16) {
		cap := sniff.NewCapture(simtime.NewClock())
		if budget >= 0 {
			cap.Record(int(budget))
		}
		for rest := data; len(rest) >= 2; {
			n := min(int(binary.BigEndian.Uint16(rest)), len(rest)-2)
			cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: rest[2 : 2+n]})
			rest = rest[2+n:]
		}
		for i := range data {
			data[i] = 0xEE
		}
		recs := cap.Records()
		if budget < 0 && len(recs) > 0 {
			t.Fatalf("capture without Record logged %d records", len(recs))
		}
		for _, r := range recs {
			if r.Payload == nil {
				continue
			}
			if budget <= 0 || len(r.Payload) > int(budget) {
				t.Fatalf("retained %d bytes under budget %d", len(r.Payload), budget)
			}
			if len(r.Payload) != r.WireLen || r.Payload[0] != byte(r.Type) ||
				5+(int(r.Payload[3])<<8|int(r.Payload[4])) != r.WireLen {
				t.Fatalf("retained payload %x inconsistent with %+v", r.Payload, r)
			}
		}
	})
}

// capturedFrames runs TestCaptureSeesHandshakeAndRecords' home and returns
// the payload of every IPv4 frame on the WiFi segment, in delivery order.
func capturedFrames(t testing.TB) [][]byte {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 11, Devices: []string{"P2"}})
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	tb.LAN.AddTap(func(f netsim.Frame) {
		if f.Type == netsim.EtherTypeIPv4 {
			frames = append(frames, append([]byte(nil), f.Payload...))
		}
	})
	tb.Start()
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	return frames
}

func encodeFrames(frames [][]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.BigEndian.AppendUint16(out, uint16(len(f)))
		out = append(out, f...)
	}
	return out
}
