package sniff_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// dataFrame is one prebuilt in-order data segment of the feeder's flow,
// carrying a whole 64-byte application record; next rewrites its TCP
// sequence number in place so it can be fed again as the following
// segment.
type dataFrame struct {
	f      *feeder
	frame  netsim.Frame
	seqOff int
	size   uint32
}

func newDataFrame(f *feeder) *dataFrame {
	rec := make([]byte, tlssim.HeaderLen+64)
	rec[0] = byte(tlssim.RecordApplication)
	rec[1], rec[2], rec[4] = 3, 3, 64
	seg := tcpsim.Segment{SrcPort: f.src.Port, DstPort: f.dst.Port, Flags: tcpsim.FlagACK, Payload: rec}
	segBytes := seg.Marshal()
	p := ipnet.Packet{Src: f.src.Addr, Dst: f.dst.Addr, Proto: ipnet.ProtoTCP, Payload: segBytes}
	pkt := p.Marshal()
	return &dataFrame{
		f:      f,
		frame:  netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: pkt},
		seqOff: len(pkt) - len(segBytes) + 4, // TCP sequence follows the two ports
		size:   uint32(len(rec)),
	}
}

func (d *dataFrame) next() {
	binary.BigEndian.PutUint32(d.frame.Payload[d.seqOff:], d.f.nextSeq)
	d.f.nextSeq += d.size
	d.f.cap.HandleFrame(d.frame)
}

// TestCaptureKeepsNoLogUnlessRecording: an attacker's always-on tap that
// never called Record still tracks flows and stream positions and reports
// every record to OnRecord, but logs nothing — and its per-record steady
// state allocates nothing.
func TestCaptureKeepsNoLogUnlessRecording(t *testing.T) {
	cap := sniff.NewCapture(simtime.NewClock())
	seen := 0
	cap.OnRecord = func(sniff.RecordMeta) { seen++ }
	f := newFeeder(cap, 50000)
	d := newDataFrame(f)
	d.next() // grow the stream buffer once
	if allocs := testing.AllocsPerRun(100, d.next); allocs != 0 {
		t.Fatalf("in-order data segment allocates %v times, want 0", allocs)
	}
	if seen != 102 {
		t.Fatalf("OnRecord saw %d records, want 102", seen)
	}
	if n := len(cap.Records()); n != 0 {
		t.Fatalf("non-recording capture logged %d records", n)
	}
	flows := cap.Flows()
	if len(flows) != 1 {
		t.Fatalf("Flows() = %v, want the fed flow", flows)
	}
	if seq, ok := cap.StreamSeq(flows[0], sniff.DirClientToServer); !ok || seq != f.nextSeq {
		t.Fatalf("StreamSeq = %d,%v want %d", seq, ok, f.nextSeq)
	}
	if len(cap.FlowRecords(flows[0])) != 0 {
		t.Fatal("FlowRecords answered from a capture that keeps no log")
	}

	// Recording starts the log from the next record on.
	cap.Record(0)
	d.next()
	if recs := cap.Records(); len(recs) != 1 || recs[0].WireLen != int(d.size) || recs[0].Payload != nil {
		t.Fatalf("Record(0) logged %+v, want one metadata-only record", recs)
	}
}

// BenchmarkCaptureHandleFrame measures the passive tap's per-frame cost on
// the steady state of a long hold: one in-order data segment carrying one
// whole application record, on a capture that keeps no log.
func BenchmarkCaptureHandleFrame(b *testing.B) {
	cap := sniff.NewCapture(simtime.NewClock())
	d := newDataFrame(newFeeder(cap, 50000))
	d.next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.next()
	}
}
