package tlssim

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

type env struct {
	clk *simtime.Clock
	cli *Conn
	srv *Conn
}

// serverEP is where every test server listens.
var serverEP = tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 443}

// newLAN puts a client host and a server host (at serverEP's address) on
// one simulated LAN, each with a TCP stack.
func newLAN() (clk *simtime.Clock, cliTCP, srvTCP *tcpsim.Stack) {
	clk = simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)
	clientIP := ipnet.NewStack(clk, nw.NewHost("client"))
	clientIP.MustAddIface(seg, "192.168.1.10/24")
	serverIP := ipnet.NewStack(clk, nw.NewHost("server"))
	serverIP.MustAddIface(seg, "192.168.1.20/24")
	return clk, tcpsim.NewStack(clk, clientIP, tcpsim.Config{}, 7), tcpsim.NewStack(clk, serverIP, tcpsim.Config{}, 8)
}

// newEnv builds client and server TLS sessions over a simulated LAN and
// completes the handshake.
func newEnv(t testing.TB) *env { return newModeEnv(t, ModeSeqBound, 0) }

// newModeEnv is newEnv with an explicit replay-mode offer from the client.
// Both endpoints draw from one source seeded 99, so every env built with
// the same offer has the same session keys.
func newModeEnv(t testing.TB, mode ReplayMode, window int) *env {
	t.Helper()
	clk, cliTCP, srvTCP := newLAN()
	rng := simtime.NewRand(99)
	e := &env{clk: clk}
	if _, err := srvTCP.Listen(serverEP.Port, func(c *tcpsim.Conn) {
		e.srv = Server(c, rng)
	}); err != nil {
		t.Fatal(err)
	}
	e.cli = ClientWithMode(cliTCP.Dial(serverEP), rng, mode, window)
	clk.RunFor(time.Second)
	if !e.cli.Established() || e.srv == nil || !e.srv.Established() {
		t.Fatal("handshake did not complete")
	}
	return e
}

func TestHandshakeCompletes(t *testing.T) {
	e := newEnv(t)
	if !e.cli.Established() || !e.srv.Established() {
		t.Fatal("not established")
	}
}

func TestBidirectionalMessages(t *testing.T) {
	e := newEnv(t)
	var toSrv, toCli []string
	e.srv.OnMessage = func(m []byte) { toSrv = append(toSrv, string(m)) }
	e.cli.OnMessage = func(m []byte) { toCli = append(toCli, string(m)) }
	if err := e.cli.Send([]byte("event: motion active")); err != nil {
		t.Fatal(err)
	}
	if err := e.srv.Send([]byte("command: lock door")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(toSrv) != 1 || toSrv[0] != "event: motion active" {
		t.Fatalf("server got %v", toSrv)
	}
	if len(toCli) != 1 || toCli[0] != "command: lock door" {
		t.Fatalf("client got %v", toCli)
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	e := newEnv(t)
	var msgs []string
	e.srv.OnMessage = func(m []byte) { msgs = append(msgs, string(m)) }
	for _, m := range []string{"a", "bb", "ccc"} {
		if err := e.cli.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	e.clk.RunFor(time.Second)
	if len(msgs) != 3 || msgs[0] != "a" || msgs[1] != "bb" || msgs[2] != "ccc" {
		t.Fatalf("messages = %v", msgs)
	}
}

func TestSendBeforeEstablishedFails(t *testing.T) {
	_, cliTCP, _ := newLAN()
	c := Client(cliTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.99"), Port: 443}), simtime.NewRand(1))
	if err := c.Send([]byte("x")); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("err = %v, want ErrNotEstablished", err)
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	e := newEnv(t)
	if err := e.cli.Send(make([]byte, maxPlaintext+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestForgedRecordDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	var cliErr error
	e.cli.OnClose = func(err error) { cliErr = err }
	// Attacker without keys injects a fake application record into the
	// client's stream.
	forged := plainRecord(RecordApplication, []byte("spoofed event payload!!!"))
	if err := e.cli.TCP().Send(forged); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
	if e.srv.AlertsRaised() != 1 {
		t.Fatalf("alerts = %d, want 1", e.srv.AlertsRaised())
	}
	var alert *AlertReceivedError
	if !errors.As(cliErr, &alert) {
		t.Fatalf("client err = %v, want AlertReceivedError", cliErr)
	}
}

func TestTamperedRecordDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("legit"))
	rec[len(rec)-1] ^= 0x01 // flip one ciphertext bit
	if err := e.cli.TCP().Send(rec); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestReplayDetected(t *testing.T) {
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("unlock"))
	if err := e.cli.TCP().Send(rec); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.TCP().Send(rec); err != nil { // replay
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 (no replay)", len(got))
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestReorderDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	var got []string
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec1 := e.cli.seal(RecordApplication, []byte("first"))
	rec2 := e.cli.seal(RecordApplication, []byte("second"))
	if err := e.cli.TCP().Send(rec2); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.TCP().Send(rec1); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("delivered %v despite reorder", got)
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestDelayedInOrderDeliveryAccepted(t *testing.T) {
	// The attack's enabler: records held for a long time and released in
	// their original order still verify — TLS has no timeout detection.
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec1 := e.cli.seal(RecordApplication, []byte("held event 1"))
	rec2 := e.cli.seal(RecordApplication, []byte("held event 2"))
	// Hold both records for two virtual hours, then release in order.
	e.clk.Schedule(2*time.Hour, func() {
		_ = e.cli.TCP().Send(rec1)
		_ = e.cli.TCP().Send(rec2)
	})
	e.clk.RunFor(3 * time.Hour)
	if srvErr != nil {
		t.Fatalf("server err = %v, want none", srvErr)
	}
	if len(got) != 2 || got[0] != "held event 1" || got[1] != "held event 2" {
		t.Fatalf("messages = %v", got)
	}
	if e.srv.AlertsRaised() != 0 || e.cli.AlertsRaised() != 0 {
		t.Fatal("delay raised alerts; it must not")
	}
}

func TestRecordLengthObservable(t *testing.T) {
	// An observer without keys recovers the plaintext length from the
	// cleartext header — the fingerprinting primitive.
	e := newEnv(t)
	msg := make([]byte, 337)
	rec := e.cli.seal(RecordApplication, msg)
	if got := len(rec); got != 337+Overhead {
		t.Fatalf("record len = %d, want %d", got, 337+Overhead)
	}
	// Header parse.
	if RecordType(rec[0]) != RecordApplication {
		t.Fatal("record type not cleartext")
	}
	n := int(rec[3])<<8 | int(rec[4])
	if n != len(rec)-HeaderLen {
		t.Fatalf("header length field = %d, want %d", n, len(rec)-HeaderLen)
	}
}

func TestCiphertextVariesWithSequence(t *testing.T) {
	// The same plaintext sealed twice in one session differs: the sequence
	// number is bound into the nonce, which is what defeats replays.
	e := newEnv(t)
	rec1 := e.cli.seal(RecordApplication, []byte("same message"))
	rec2 := e.cli.seal(RecordApplication, []byte("same message"))
	if string(rec1[HeaderLen:]) == string(rec2[HeaderLen:]) {
		t.Fatal("two records with different sequence numbers produced identical ciphertext")
	}
}

// TestDirectionsUseDistinctKeys: both directions seal with the one session
// key, so what keeps their records apart is the nonce — its first byte names
// the direction, and the same plaintext at the same sequence seals to
// different ciphertext client→server and server→client.
func TestDirectionsUseDistinctKeys(t *testing.T) {
	e := newEnv(t)
	c2s := e.cli.seal(RecordApplication, []byte("same message"))
	s2c := e.srv.seal(RecordApplication, []byte("same message"))
	if string(c2s[HeaderLen:]) == string(s2c[HeaderLen:]) {
		t.Fatal("both directions produced identical ciphertext at sequence 0")
	}
}

// TestReflectedRecordRejected: a record the client sealed, fed back into
// the client's own receive path at the sequence it expects next, fails
// authentication and raises an alert. With one key for both directions,
// only the direction byte in the nonce tells the two streams apart.
func TestReflectedRecordRejected(t *testing.T) {
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newModeEnv(t, mode, 0)
			var got []string
			var cliErr error
			e.cli.OnMessage = func(m []byte) { got = append(got, string(m)) }
			e.cli.OnClose = func(err error) { cliErr = err }
			rec := e.cli.seal(RecordApplication, []byte("unlock"))
			if err := e.srv.TCP().Send(rec); err != nil {
				t.Fatal(err)
			}
			e.clk.RunFor(time.Second)
			if len(got) != 0 {
				t.Fatalf("client accepted its own reflected record: %q", got)
			}
			if !errors.Is(cliErr, ErrBadRecord) || e.cli.AlertsRaised() != 1 {
				t.Fatalf("client err = %v with %d alerts, want ErrBadRecord and 1 alert", cliErr, e.cli.AlertsRaised())
			}
		})
	}
}

func TestCleanClose(t *testing.T) {
	e := newEnv(t)
	var cliErr, srvErr error
	cliClosed, srvClosed := false, false
	e.cli.OnClose = func(err error) { cliClosed, cliErr = true, err }
	e.srv.OnClose = func(err error) { srvClosed, srvErr = true, err }
	e.cli.Close()
	e.clk.RunFor(time.Second)
	if !cliClosed || !srvClosed {
		t.Fatalf("closed: cli=%v srv=%v", cliClosed, srvClosed)
	}
	if cliErr != nil || srvErr != nil {
		t.Fatalf("close errors: %v / %v", cliErr, srvErr)
	}
	if err := e.cli.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestTCPResetPropagates(t *testing.T) {
	e := newEnv(t)
	var cliErr error
	e.cli.OnClose = func(err error) { cliErr = err }
	e.srv.TCP().Abort()
	e.clk.RunFor(time.Second)
	if !errors.Is(cliErr, tcpsim.ErrReset) {
		t.Fatalf("client err = %v, want tcp reset", cliErr)
	}
}

// TestSessionKeyKnownAnswer pins the key derivation: the session secret is
// SHA-256(clientShare ‖ serverShare), the session's AES-128 key is
// HMAC-SHA256(secret, "client write" ‖ clientRandom ‖ serverRandom) cut to
// 16 bytes, client records carry direction byte 0 in the nonce, and fixed
// seeds give a fixed first sealed record.
func TestSessionKeyKnownAnswer(t *testing.T) {
	e := newEnv(t)
	msg := []byte("event: door open")
	got := e.cli.seal(RecordApplication, msg)
	const want = "17030300206574d9b3160a01662a538022a72e17b4c78e85101295259a9ce6d4a94330b222"
	if hex.EncodeToString(got) != want {
		t.Fatalf("first sealed record\n%x\nwant\n%s", got, want)
	}

	// The same record from the stated derivation, computed independently.
	ch, sh := e.cli.hello, e.srv.hello
	secret := sha256.Sum256(append(append([]byte(nil), ch[:shareLen]...), sh[:shareLen]...))
	mac := hmac.New(sha256.New, secret[:])
	mac.Write([]byte("client write"))
	mac.Write(ch[shareLen:])
	mac.Write(sh[shareLen:])
	block, err := aes.NewCipher(mac.Sum(nil)[:16])
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte{0, 0, 0, 0, 0, 0, 0, 0, byte(RecordApplication), 3, 3, 0, byte(len(msg) + 16)}
	body := gcm.Seal(nil, make([]byte, 12), msg, aad)
	if string(got[HeaderLen:]) != string(body) {
		t.Fatalf("sealed body %x, derivation gives %x", got[HeaderLen:], body)
	}
}

// TestAlteredHelloShareDetected: the hellos travel in the clear and are not
// authenticated, but both shares and both randoms feed the keys. A hello
// byte altered in flight leaves the endpoints with different keys, so the
// first application record fails authentication and raises an alert —
// property 2 holds without a key agreement.
func TestAlteredHelloShareDetected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		toServer bool // alter the client hello (else the server hello)
		off      int  // body offset of the flipped bit
	}{
		{"client share", true, 0},
		{"server share", false, shareLen - 1},
		{"client random", true, shareLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk, cliTCP, srvTCP := newLAN()
			rng := simtime.NewRand(99)
			var srv *Conn
			var srvErr, cliErr error
			var got []string
			if _, err := srvTCP.Listen(serverEP.Port, func(c *tcpsim.Conn) {
				srv = Server(c, rng)
				srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
				srv.OnClose = func(err error) { srvErr = err }
				if tc.toServer {
					alterFirstRecord(c, tc.off)
				}
			}); err != nil {
				t.Fatal(err)
			}
			tcp := cliTCP.Dial(serverEP)
			cli := Client(tcp, rng)
			cli.OnClose = func(err error) { cliErr = err }
			if !tc.toServer {
				alterFirstRecord(tcp, tc.off)
			}
			clk.RunFor(time.Second)
			if !cli.Established() || srv == nil || !srv.Established() {
				t.Fatal("handshake did not complete")
			}
			if err := cli.Send([]byte("event: door open")); err != nil {
				t.Fatal(err)
			}
			clk.RunFor(time.Second)
			if len(got) != 0 {
				t.Fatalf("server delivered %q under mismatched keys", got)
			}
			if !errors.Is(srvErr, ErrBadRecord) || srv.AlertsRaised() != 1 {
				t.Fatalf("server err = %v, alerts %d; want ErrBadRecord and one alert", srvErr, srv.AlertsRaised())
			}
			var alert *AlertReceivedError
			if !errors.As(cliErr, &alert) || alert.Description != "bad_record_mac" {
				t.Fatalf("client err = %v, want the bad_record_mac alert", cliErr)
			}
		})
	}
}

// alterFirstRecord flips one bit at body offset off of the first record
// tcp delivers — the peer's hello — as an on-path attacker would.
func alterFirstRecord(tcp *tcpsim.Conn, off int) {
	deliver, done := tcp.OnData, false
	tcp.OnData = func(b []byte) {
		if !done && len(b) > HeaderLen+off {
			b = append([]byte(nil), b...)
			b[HeaderLen+off] ^= 0x01
			done = true
		}
		deliver(b)
	}
}

func TestMalformedHandshakeRejected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	// A second (unexpected) handshake record after establishment.
	if err := e.cli.TCP().Send(plainRecord(RecordHandshake, make([]byte, 48))); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", srvErr)
	}
}

func TestShortHandshakeRejected(t *testing.T) {
	// A fresh server receiving a truncated hello (30 bytes, not 48) must
	// fail the handshake.
	l := newHelloLab(t, make([]byte, 30))
	if l.srv.Established() {
		t.Fatal("handshake should not complete")
	}
	if !errors.Is(l.srv.closeErr, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", l.srv.closeErr)
	}
}

func TestUnknownRecordTypeRejected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	if err := e.cli.TCP().Send(plainRecord(RecordType(99), []byte("junk"))); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", srvErr)
	}
}

func TestAlertErrorDescription(t *testing.T) {
	err := &AlertReceivedError{Description: "bad_record_mac"}
	if err.Error() != "tlssim: alert from peer: bad_record_mac" {
		t.Fatalf("Error() = %q", err.Error())
	}
}
