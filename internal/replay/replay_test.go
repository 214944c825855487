package replay_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// fakeCapture builds a capture transcript for one device flow: keep-alive,
// event, keep-alive, plus a second flow as a decoy. Payloads are synthetic —
// the helpers under test select records by classifier verdict and flow
// membership, never by content.
func fakeCapture(t *testing.T, label string) ([]sniff.RecordMeta, sniff.FlowKey) {
	t.Helper()
	var prof device.Profile
	for _, p := range device.Catalog() {
		if p.Label == label {
			prof = p
		}
	}
	if prof.Label == "" {
		t.Fatalf("label %s not in catalog", label)
	}
	flow := sniff.FlowKey{
		Client: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.30"), Port: 40000},
		Server: tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 8883},
	}
	decoy := sniff.FlowKey{
		Client: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.31"), Port: 40001},
		Server: flow.Server,
	}
	rec := func(f sniff.FlowKey, dir sniff.Direction, wire int) sniff.RecordMeta {
		return sniff.RecordMeta{
			Flow: f, Dir: dir, Type: tlssim.RecordApplication,
			WireLen: wire, Payload: make([]byte, wire),
		}
	}
	ka := prof.KeepAliveLen + tlssim.Overhead
	ev := prof.EventLen + tlssim.Overhead
	records := []sniff.RecordMeta{
		rec(flow, sniff.DirClientToServer, ka),
		rec(decoy, sniff.DirClientToServer, ka+1), // wrong length: unclassified
		rec(flow, sniff.DirServerToClient, ev),    // wrong direction
		rec(flow, sniff.DirClientToServer, ev),    // the event
		rec(flow, sniff.DirClientToServer, ka),    // traffic after the event
	}
	return records, flow
}

func TestFindEventRecordPicksLatestEvent(t *testing.T) {
	const label = "P2"
	records, _ := fakeCapture(t, label)
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records)
	if !ok || idx != 3 {
		t.Fatalf("FindEventRecord = %d, %v; want 3, true", idx, ok)
	}

	// A duplicate event later in the capture wins: newest-first scan.
	records = append(records, records[3])
	idx, ok = replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records)
	if !ok || idx != 5 {
		t.Fatalf("after duplicate: FindEventRecord = %d, %v; want 5, true", idx, ok)
	}

	// Records without retained payloads cannot be replayed, so they are
	// skipped even when their lengths classify.
	for i := range records {
		records[i].Payload = nil
	}
	if _, ok := replay.FindEventRecord(sniff.CatalogClassifier(), label, label, records); ok {
		t.Fatal("payload-less capture yielded a replayable event")
	}
}

func TestSessionPrefixFiltersFlowAndDirection(t *testing.T) {
	records, flow := fakeCapture(t, "P2")
	prefix := replay.SessionPrefix(records, 3)
	// Device-to-server records of the event's flow, up to and including the
	// event: the opening keep-alive and the event itself. The decoy flow,
	// the server-to-client record and post-event traffic are all excluded.
	if len(prefix) != 2 {
		t.Fatalf("prefix has %d records, want 2: %+v", len(prefix), prefix)
	}
	for _, r := range prefix {
		if r.Flow != flow || r.Dir != sniff.DirClientToServer {
			t.Fatalf("prefix leaked a foreign record: %+v", r)
		}
	}
	if prefix[len(prefix)-1].WireLen != records[3].WireLen {
		t.Fatal("prefix does not end at the event record")
	}

	if replay.SessionPrefix(records, -1) != nil || replay.SessionPrefix(records, len(records)) != nil {
		t.Fatal("out-of-range index returned a prefix")
	}
}

// record frames body as one wire record, header included.
func record(typ tlssim.RecordType, body []byte) []byte {
	rec := []byte{byte(typ), 0x03, 0x03, byte(len(body) >> 8), byte(len(body))}
	return append(rec, body...)
}

// nullCipherRecord encodes msg the way a null-cipher session does: an
// explicit 8-byte sequence followed by the clear payload.
func nullCipherRecord(seq byte, msg string) []byte {
	body := append(make([]byte, 7, 8+len(msg)), seq)
	return record(tlssim.RecordApplication, append(body, msg...))
}

// appReplayLab puts an attacker and a listening TLS server on one LAN and
// records what the server accepts and receives.
type appReplayLab struct {
	clk      *simtime.Clock
	eng      *replay.Engine
	atk      *core.Attacker
	server   tcpsim.Endpoint
	accepted int
	got      []string
}

func newAppReplayLab(t *testing.T) *appReplayLab {
	t.Helper()
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	lan := nw.NewSegment("lan", time.Millisecond, 0)
	srvIP := ipnet.NewStack(clk, nw.NewHost("cloud"))
	srvIP.MustAddIface(lan, "192.168.1.20/24")
	srvTCP := tcpsim.NewStack(clk, srvIP, tcpsim.Config{}, 8)
	atk, err := core.NewAttacker(nw, lan, "attacker", "192.168.1.66/24", ipaddr.MustParse("192.168.1.1"), 5)
	if err != nil {
		t.Fatal(err)
	}
	l := &appReplayLab{
		clk: clk, eng: replay.NewEngine(atk), atk: atk,
		server: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 8883},
	}
	rng := simtime.NewRand(9)
	if _, err := srvTCP.Listen(l.server.Port, func(c *tcpsim.Conn) {
		l.accepted++
		tlssim.Server(c, rng).OnMessage = func(m []byte) { l.got = append(l.got, string(m)) }
	}); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAppReplayReadabilityFromHello: whether a capture is readable is the
// flow's negotiated mode, read from its client hello — never the shape of
// its application records. Every case below carries the same
// null-cipher-shaped records (legacy-nonce ciphertext has that shape too);
// only a null-cipher hello makes them plaintext. Unreadable captures fail
// before any connection is dialed.
func TestAppReplayReadabilityFromHello(t *testing.T) {
	flow := sniff.FlowKey{
		Client: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.30"), Port: 40000},
		Server: tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 8883},
	}
	hello := func(offer ...byte) []byte {
		return record(tlssim.RecordHandshake, append(make([]byte, 48), offer...))
	}
	msgs := []string{"CONNECT dev-7", "PUBLISH leak=1"}
	for _, tc := range []struct {
		name  string
		hello []byte // nil: the hello's payload was not retained
		want  []string
	}{
		{"seq-bound", hello(), nil},
		{"legacy-nonce", hello(byte(tlssim.ModeLegacyNonce), 0), nil},
		{"legacy-nonce-window", hello(byte(tlssim.ModeLegacyNonce), 64), nil},
		{"hello-not-retained", nil, nil},
		{"null-cipher", hello(byte(tlssim.ModeNullCipher), 0), msgs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newAppReplayLab(t)
			c2s := sniff.DirClientToServer
			records := []sniff.RecordMeta{
				{Flow: flow, Dir: c2s, Type: tlssim.RecordHandshake, WireLen: 55, Payload: tc.hello},
				{Flow: flow, Dir: c2s, Type: tlssim.RecordApplication, Payload: nullCipherRecord(0, msgs[0])},
				{Flow: flow, Dir: c2s, Type: tlssim.RecordApplication, Payload: nullCipherRecord(1, msgs[1])},
			}
			sess, err := l.eng.AppReplay(l.server, records)
			if tc.want == nil {
				if !errors.Is(err, replay.ErrNotReadable) {
					t.Fatalf("AppReplay err = %v, want ErrNotReadable", err)
				}
				l.clk.RunFor(5 * time.Second)
				if n := l.atk.TCP.ConnCount(); n != 0 || l.accepted != 0 {
					t.Fatalf("unreadable capture dialed: %d attacker conns, %d accepted", n, l.accepted)
				}
				return
			}
			if err != nil {
				t.Fatalf("AppReplay: %v", err)
			}
			l.clk.RunFor(5 * time.Second)
			if sess.Sent != len(tc.want) || strings.Join(l.got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("server received %q (sent %d), want %q", l.got, sess.Sent, tc.want)
			}
		})
	}
}
