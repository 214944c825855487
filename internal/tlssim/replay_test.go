package tlssim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// TestModeNegotiation pins the hello wire format: the default offer stays
// the 48-byte pre-negotiation hello, explicit offers ride two extra bytes,
// and the server adopts the client's mode and window for the session.
func TestModeNegotiation(t *testing.T) {
	for _, tc := range []struct {
		mode   ReplayMode
		window int
		want   int // expected adopted window
	}{
		{ModeSeqBound, 0, 0},
		{ModeLegacyNonce, 0, 0},
		{ModeLegacyNonce, 64, 64},
		{ModeNullCipher, 8, 8},
		{ModeNullCipher, 1 << 20, MaxReplayWindow}, // clamped
		{ModeLegacyNonce, -3, 0},                   // clamped
	} {
		e := newModeEnv(t, tc.mode, tc.window)
		if e.srv.Mode() != tc.mode {
			t.Errorf("mode %v window %d: server adopted %v", tc.mode, tc.window, e.srv.Mode())
		}
		if e.srv.ReplayWindowSize() != tc.want {
			t.Errorf("mode %v window %d: server window %d, want %d",
				tc.mode, tc.window, e.srv.ReplayWindowSize(), tc.want)
		}
	}
}

// helloLab dials a real Server from a raw TCP client, so tests can write
// arbitrary hello bytes and read the server's reply off the wire.
type helloLab struct {
	clk   *simtime.Clock
	srv   *Conn
	reply []byte
}

// newHelloLab sends body (nil: nothing) as the client's handshake record
// once TCP establishes, and runs the exchange for a simulated second.
func newHelloLab(t testing.TB, body []byte) *helloLab {
	t.Helper()
	clk, cliTCP, srvTCP := newLAN()
	l := &helloLab{clk: clk}
	rng := simtime.NewRand(99)
	if _, err := srvTCP.Listen(serverEP.Port, func(c *tcpsim.Conn) { l.srv = Server(c, rng) }); err != nil {
		t.Fatal(err)
	}
	tcp := cliTCP.Dial(serverEP)
	tcp.OnData = func(b []byte) { l.reply = append(l.reply, b...) }
	tcp.OnEstablished = func() {
		if body != nil {
			_ = tcp.Send(plainRecord(RecordHandshake, body))
		}
	}
	clk.RunFor(time.Second)
	if l.srv == nil {
		t.Fatal("no server connection")
	}
	return l
}

// clientHello runs a real client with the given offer against a raw TCP
// server and returns the hello record it puts on the wire.
func clientHello(t *testing.T, rng *simtime.Rand, mode ReplayMode, window int) []byte {
	t.Helper()
	clk, cliTCP, srvTCP := newLAN()
	var wire []byte
	if _, err := srvTCP.Listen(serverEP.Port, func(c *tcpsim.Conn) {
		c.OnData = func(b []byte) { wire = append(wire, b...) }
	}); err != nil {
		t.Fatal(err)
	}
	ClientWithMode(cliTCP.Dial(serverEP), rng, mode, window)
	clk.RunFor(time.Second)
	return wire
}

// TestDefaultHelloIsLegacyCompatible pins the hello wire format: the body
// is the endpoint's 48-byte draw from the simulation source — key share,
// then session random — sent verbatim. The default offer is exactly those
// 48 bytes (replay-mode negotiation must not change the wire bytes of
// sessions that never offer it); an explicit offer appends mode and
// window. A server's hello is its own bare draw whatever it adopted.
func TestDefaultHelloIsLegacyCompatible(t *testing.T) {
	for _, tc := range []struct {
		mode   ReplayMode
		window int
	}{
		{ModeSeqBound, 0}, {ModeNullCipher, 8}, {ModeLegacyNonce, 64},
	} {
		body := make([]byte, helloLen, helloLen+2)
		simtime.NewRand(5).Bytes(body)
		if tc.mode != ModeSeqBound || tc.window > 0 {
			body = append(body, byte(tc.mode), byte(tc.window))
		}
		if got := clientHello(t, simtime.NewRand(5), tc.mode, tc.window); string(got) != string(plainRecord(RecordHandshake, body)) {
			t.Fatalf("%v/%d: client hello\n%x\nwant\n%x", tc.mode, tc.window, got, plainRecord(RecordHandshake, body))
		}

		l := newHelloLab(t, body)
		if !l.srv.Established() || l.srv.Mode() != tc.mode {
			t.Fatalf("%v: server established=%v mode=%v", tc.mode, l.srv.Established(), l.srv.Mode())
		}
		if string(l.srv.peerHello[:]) != string(body[:helloLen]) {
			t.Fatalf("%v: server recorded a different peer hello", tc.mode)
		}
		if string(l.reply) != string(plainRecord(RecordHandshake, l.srv.hello[:])) {
			t.Fatalf("%v: server hello %x is not its bare share and random", tc.mode, l.reply)
		}
	}
}

// TestBadModeRejected: a hello carrying an undefined mode byte must fail
// the handshake with an alert instead of a server hello.
func TestBadModeRejected(t *testing.T) {
	body := make([]byte, helloLen, helloLen+2)
	simtime.NewRand(5).Bytes(body)
	l := newHelloLab(t, append(body, 0xEE, 0x00))
	if l.srv.Established() {
		t.Fatal("server established a session from an invalid mode offer")
	}
	if l.srv.AlertsRaised() != 1 || len(l.reply) < HeaderLen || RecordType(l.reply[0]) != RecordAlert {
		t.Fatalf("server raised %d alerts, replied %x; want one bad_replay_mode alert", l.srv.AlertsRaised(), l.reply)
	}
	if got := string(l.reply[HeaderLen:]); got != "bad_replay_mode" {
		t.Fatalf("alert = %q, want bad_replay_mode", got)
	}
}

// TestLegacyNonceVerbatimReplayAccepted: under ModeLegacyNonce with no
// window, a verbatim captured record decrypts against its carried sequence
// and is delivered twice — the raw-replay vulnerability.
func TestLegacyNonceVerbatimReplayAccepted(t *testing.T) {
	e := newModeEnv(t, ModeLegacyNonce, 0)
	var got []string
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	rec := e.cli.seal(RecordApplication, []byte("event: leak detected"))
	for i := 0; i < 2; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 2 || got[0] != got[1] {
		t.Fatalf("server delivered %v, want the duplicate accepted", got)
	}
	if err := e.cli.Send([]byte("still alive")); err != nil {
		t.Fatalf("session should survive a legacy replay: %v", err)
	}
}

// TestReplayWindowDropsDuplicateSilently: with a negotiated window the
// duplicate is discarded without an alert or teardown, DTLS-style.
func TestReplayWindowDropsDuplicateSilently(t *testing.T) {
	e := newModeEnv(t, ModeLegacyNonce, 64)
	var got []string
	var closed error
	gotClose := false
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { closed, gotClose = err, true }
	rec := e.cli.seal(RecordApplication, []byte("event: leak detected"))
	for i := 0; i < 3; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 1 {
		t.Fatalf("server delivered %v, want exactly one", got)
	}
	if gotClose {
		t.Fatalf("window drop tore the session down: %v", closed)
	}
	if e.srv.AlertsRaised() != 0 {
		t.Fatalf("window drop raised %d alerts, want none", e.srv.AlertsRaised())
	}
}

// TestSeqBoundReplayTearsDown: the default mode treats a replayed record as
// an authentication failure — alert and teardown, nothing delivered twice.
func TestSeqBoundReplayTearsDown(t *testing.T) {
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("event: door open"))
	for i := 0; i < 2; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 1 {
		t.Fatalf("server delivered %v, want one", got)
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

// TestNullCipherReadableOnTheWire: null-cipher application records expose
// the plaintext to ReadPlaintext; every other shape reads as nil.
func TestNullCipherReadableOnTheWire(t *testing.T) {
	e := newModeEnv(t, ModeNullCipher, 0)
	msg := []byte("event: motion active")
	rec := e.cli.seal(RecordApplication, msg)
	if got := string(ReadPlaintext(rec)); got != string(msg) {
		t.Fatalf("ReadPlaintext = %q, want %q", got, msg)
	}

	// Not readable: seq-bound ciphertext of the right type but the payload
	// must not leak, handshake records, truncated and length-lying records.
	seqEnv := newEnv(t)
	ct := seqEnv.cli.seal(RecordApplication, msg)
	if p := ReadPlaintext(ct); string(p) == string(msg) {
		t.Fatal("ReadPlaintext recovered plaintext from a seq-bound record")
	}
	if p := ReadPlaintext(plainRecord(RecordHandshake, make([]byte, 48))); p != nil {
		t.Fatal("ReadPlaintext accepted a handshake record")
	}
	if p := ReadPlaintext(rec[:HeaderLen+4]); p != nil {
		t.Fatal("ReadPlaintext accepted a truncated record")
	}
	lying := append([]byte(nil), rec...)
	lying[4]++ // header length no longer matches the body
	if p := ReadPlaintext(lying); p != nil {
		t.Fatal("ReadPlaintext accepted a length-lying record")
	}
}

// TestModeOverheadMatchesWire pins ModeOverhead against actual sealed
// records — the sniffing fingerprints depend on these constants.
func TestModeOverheadMatchesWire(t *testing.T) {
	msg := []byte("0123456789")
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
		var e *env
		if mode == ModeSeqBound {
			e = newEnv(t)
		} else {
			e = newModeEnv(t, mode, 0)
		}
		rec := e.cli.seal(RecordApplication, msg)
		if len(rec) != len(msg)+ModeOverhead(mode) {
			t.Errorf("%v: wire %d bytes, want %d + %d", mode, len(rec), len(msg), ModeOverhead(mode))
		}
	}
}

// TestReplayWindowObserve covers the sliding-window edge cases directly.
func TestReplayWindowObserve(t *testing.T) {
	var w replayWindow
	if !w.observe(5, 64) {
		t.Fatal("first sequence rejected")
	}
	if w.observe(5, 64) {
		t.Fatal("duplicate accepted")
	}
	if !w.observe(7, 64) || !w.observe(6, 64) {
		t.Fatal("fresh in-window sequences rejected")
	}
	if w.observe(6, 64) {
		t.Fatal("back-filled duplicate accepted")
	}
	// Too old to judge: at or below highest-size counts as replayed.
	if !w.observe(200, 64) {
		t.Fatal("large jump rejected")
	}
	if w.observe(100, 64) {
		t.Fatal("sequence below the window accepted")
	}
	// A jump of >= 64 resets the mask entirely.
	if !w.observe(500, 64) || !w.observe(499, 64) {
		t.Fatal("post-jump sequences rejected")
	}
}

// TestClampWindow pins the negotiation bounds.
func TestClampWindow(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {64, 64}, {65, 64}, {1 << 30, 64},
	} {
		if got := clampWindow(tc.in); got != tc.want {
			t.Errorf("clampWindow(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestKeygenDeterministic: two connections built from equal seeds must
// produce byte-identical ciphertext for the same conversation. Key
// material must come only from fixed-size draws on the simulation source;
// a keygen that consumes a scheduler-dependent number of reader bytes
// would fork every later draw.
func TestKeygenDeterministic(t *testing.T) {
	msg := []byte("event: door open")
	a, b := newEnv(t).cli.seal(RecordApplication, msg), newEnv(t).cli.seal(RecordApplication, msg)
	if string(a) != string(b) {
		t.Fatalf("same-seed ciphertext differs:\n%x\n%x", a, b)
	}
}
