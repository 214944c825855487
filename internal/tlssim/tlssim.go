// Package tlssim implements a TLS-like secure channel over a tcpsim
// connection: a hello exchange of random key shares followed by AES-GCM
// records bound to implicit per-direction sequence numbers. One
// HMAC-SHA256 session key serves both directions; the record's direction
// is bound into the nonce.
//
// The three properties the paper's analysis rests on all hold here:
//
//  1. Record headers (type and length) are cleartext, so an on-path
//     attacker can delimit and fingerprint messages without keys.
//  2. Any forgery, modification, replay or reordering fails authentication
//     (the sequence number is bound into the nonce and additional data) and
//     tears the session down with an alert — the attacker cannot spoof
//     application messages.
//  3. The layer has no timeout detection of its own: records delayed by an
//     attacker and later delivered in their original order verify cleanly.
//
// None of the three needs a Diffie–Hellman key agreement, so there is
// none: the session secret is SHA-256 over the two cleartext hello shares.
// Without certificates a DH exchange would not stop the one attacker the
// simulation models — an active on-path MITM can run a DH exchange with
// each side — and no attacker code computes keys; the secret only has to
// differ per session and be bound to both hellos, so that a share altered
// in flight fails authentication at the first record. The one property
// given up, secrecy against a passive observer who knows the derivation,
// is one nothing in the simulator relies on. One key serves both
// directions because AES-GCM needs only a distinct nonce per record, which
// the direction byte and the sequence give; the direction byte also makes
// a record reflected back at its sender fail authentication like any
// other forgery.
package tlssim

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// RecordType identifies a record's purpose, mirroring TLS content types.
type RecordType byte

// Record content types (values match TLS for familiarity in traces).
const (
	RecordAlert       RecordType = 21
	RecordHandshake   RecordType = 22
	RecordApplication RecordType = 23
)

// HeaderLen is the cleartext record header size: type(1) version(2) len(2).
const HeaderLen = 5

// Overhead is the per-record size added to an application message: the
// cleartext header plus the 16-byte AEAD tag. Sniffers subtract it to
// recover plaintext message lengths from wire observations.
const Overhead = HeaderLen + 16

// shareLen is the size of the key share that leads each hello.
const shareLen = 32

// helloLen is a hello's handshake body: the 32-byte key share and the
// 16-byte session random. A client's replay-mode offer appends two bytes.
const helloLen = shareLen + 16

// maxPlaintext bounds one record's payload, as in TLS.
const maxPlaintext = 16384

// Errors surfaced through OnClose or Send.
var (
	// ErrBadRecord reports an authentication or sequencing violation.
	ErrBadRecord = errors.New("tlssim: record authentication failed")
	// ErrHandshake reports a malformed handshake exchange.
	ErrHandshake = errors.New("tlssim: handshake failed")
	// ErrNotEstablished reports Send before the handshake completed.
	ErrNotEstablished = errors.New("tlssim: session not established")
	// ErrClosed reports use after close.
	ErrClosed = errors.New("tlssim: session closed")
	// ErrRecordTooLarge reports a Send exceeding the record size limit.
	ErrRecordTooLarge = errors.New("tlssim: message exceeds record limit")
)

// AlertReceivedError reports the session was ended by a peer alert,
// carrying its description. It indicates to experiments that tampering was
// *detected* — the outcome phantom delays never produce.
type AlertReceivedError struct {
	Description string
}

func (e *AlertReceivedError) Error() string {
	return fmt.Sprintf("tlssim: alert from peer: %s", e.Description)
}

// Conn is one endpoint of a secure session layered on a TCP connection.
// All callbacks run on the simulation event loop.
type Conn struct {
	tcp      *tcpsim.Conn
	isClient bool

	// hello is this endpoint's hello body — key share, then session random
	// — drawn in one read from the simulation source; peerHello is the
	// peer's, as received.
	hello        [helloLen]byte
	peerHello    [helloLen]byte
	established  bool
	closed       bool
	closeErr     error
	sendSeq      uint64
	recvSeq      uint64
	aead         cipher.AEAD
	rbuf         []byte
	alertsRaised int
	// nonceBuf/aadBuf are the per-record crypto scratch: the AEAD consumes
	// both before Seal/Open returns, so one pair serves every record.
	nonceBuf [12]byte
	aadBuf   [13]byte
	// sbuf is the scratch Send seals each outbound record into: tcpsim
	// copies the bytes into its own chunks before Send returns.
	sbuf []byte

	// mode/window are the negotiated replay protections (see replay.go):
	// clients pick them at construction, servers adopt them from the hello.
	mode       ReplayMode
	window     int
	recvWindow replayWindow

	trace *obs.Trace
	label string

	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnMessage delivers one decrypted application message per record. The
	// slice is the connection's receive buffer, opened in place: it is
	// valid only during the callback, so a consumer that keeps the bytes
	// copies them.
	OnMessage func([]byte)
	// OnClose fires exactly once when the session ends; nil means a clean
	// close, ErrBadRecord or AlertReceivedError mean detected tampering.
	OnClose func(error)
}

// Client starts a session as the initiator. The ClientHello goes out when
// the underlying TCP connection establishes (immediately if it already is).
func Client(tcp *tcpsim.Conn, rng *simtime.Rand) *Conn {
	return ClientWithMode(tcp, rng, ModeSeqBound, 0)
}

// Server starts a session as the responder on an accepted TCP connection.
func Server(tcp *tcpsim.Conn, rng *simtime.Rand) *Conn {
	return newConn(tcp, rng, false)
}

func newConn(tcp *tcpsim.Conn, rng *simtime.Rand, isClient bool) *Conn {
	c := &Conn{tcp: tcp, isClient: isClient}
	rng.Bytes(c.hello[:])
	tcp.OnData = c.onData
	tcp.OnClose = func(err error) { c.teardown(err) }
	return c
}

// TCP returns the underlying transport connection.
func (c *Conn) TCP() *tcpsim.Conn { return c.tcp }

// Instrument attaches a trace ring so the connection emits "tlssim" events
// (handshake, per-record seq-check pass/fail, alerts), labeled by the
// endpoint's name. A nil or disabled trace keeps the connection silent.
func (c *Conn) Instrument(tr *obs.Trace, label string) {
	if !tr.Enabled() {
		return
	}
	c.trace = tr
	c.label = label
}

func (c *Conn) emit(event, detail string, value int64) {
	if c.trace == nil {
		return
	}
	c.trace.Emit(c.tcp.Clock().Now(), "tlssim", event, detail, value)
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// AlertsRaised counts integrity alerts this endpoint has sent — the
// "detection" signal the experiments assert stays at zero under the attack.
func (c *Conn) AlertsRaised() int { return c.alertsRaised }

// Send encrypts msg as a single application record.
func (c *Conn) Send(msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	if !c.established {
		return ErrNotEstablished
	}
	if len(msg) > maxPlaintext {
		return ErrRecordTooLarge
	}
	c.sbuf = c.appendSealed(c.sbuf[:0], RecordApplication, msg)
	return c.tcp.Send(c.sbuf)
}

// Close closes the session and its transport gracefully.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.tcp.Close()
}

func (c *Conn) sendHello() {
	body := make([]byte, 0, helloLen+2)
	body = append(body, c.hello[:]...)
	// Replay-mode negotiation rides two extra client hello bytes; the
	// default seq-bound/no-window offer stays byte-identical to the 48-byte
	// hello that predates it. The server adopts the offer and never echoes it.
	if c.isClient && (c.mode != ModeSeqBound || c.window > 0) {
		body = append(body, byte(c.mode), byte(c.window))
	}
	// Transport errors surface later through OnClose; a failed hello simply
	// never completes the handshake.
	_ = c.tcp.Send(plainRecord(RecordHandshake, body))
}

func (c *Conn) onData(b []byte) {
	c.rbuf = append(c.rbuf, b...)
	off := 0
	for !c.closed && len(c.rbuf)-off >= HeaderLen {
		rec := c.rbuf[off:]
		n := int(binary.BigEndian.Uint16(rec[3:5]))
		if len(rec) < HeaderLen+n {
			break
		}
		off += HeaderLen + n
		c.processRecord(RecordType(rec[0]), rec[HeaderLen:HeaderLen+n])
	}
	c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[off:])]
}

func (c *Conn) processRecord(typ RecordType, body []byte) {
	switch typ {
	case RecordHandshake:
		c.processHandshake(body)
	case RecordApplication:
		c.processApplication(body)
	case RecordAlert:
		if c.trace != nil {
			c.emit("alert_received", c.label+":"+string(body), 0)
		}
		c.tcp.Close()
		c.teardown(&AlertReceivedError{Description: string(body)})
	default:
		c.fail("unexpected_record_type")
	}
}

func (c *Conn) processHandshake(body []byte) {
	if c.established || (len(body) != helloLen && len(body) != helloLen+2) {
		c.fail("unexpected_handshake")
		return
	}
	if len(body) == helloLen+2 {
		// Replay-mode negotiation: only a client hello may carry it, and the
		// server adopts the client's offer for both directions.
		mode := ReplayMode(body[helloLen])
		if c.isClient || !mode.Valid() {
			c.fail("bad_replay_mode")
			return
		}
		c.mode = mode
		c.window = clampWindow(int(body[helloLen+1]))
	}
	copy(c.peerHello[:], body)
	if !c.isClient {
		// Respond before deriving so the client can complete too.
		c.sendHello()
	}
	if err := c.deriveKeys(); err != nil {
		c.fail("key_derivation_failed")
		return
	}
	c.established = true
	c.emit("handshake", c.label, 0)
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// deriveKeys keys the session from the two hellos. The secret is
// SHA-256(clientShare ‖ serverShare); the one AES-128 key is
// HMAC-SHA256(secret, "client write" ‖ clientRandom ‖ serverRandom) cut to
// 16 bytes, the HMAC (RFC 2104, secret zero-padded to the 64-byte block)
// computed over stack arrays. Both directions seal with it: nonce byte 0
// names the direction (see nonce), so the two streams never share a nonce.
func (c *Conn) deriveKeys() error {
	client, server := &c.hello, &c.peerHello
	if !c.isClient {
		client, server = server, client
	}
	var shares [2 * shareLen]byte
	copy(shares[:shareLen], client[:shareLen])
	copy(shares[shareLen:], server[:shareLen])
	secret := sha256.Sum256(shares[:])
	const label = "client write"
	var innerBuf [sha256.BlockSize + len(label) + 2*(helloLen-shareLen)]byte
	var outerBuf [sha256.BlockSize + sha256.Size]byte
	copy(innerBuf[:], secret[:])
	copy(outerBuf[:], secret[:])
	for i := range sha256.BlockSize {
		innerBuf[i] ^= 0x36 // ipad
		outerBuf[i] ^= 0x5c // opad
	}
	inner := append(innerBuf[:sha256.BlockSize], label...)
	inner = append(inner, client[shareLen:]...)
	inner = append(inner, server[shareLen:]...)
	innerSum := sha256.Sum256(inner)
	key := sha256.Sum256(append(outerBuf[:sha256.BlockSize], innerSum[:]...))
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return err
	}
	c.aead, err = cipher.NewGCM(block)
	return err
}

func (c *Conn) processApplication(body []byte) {
	if !c.established {
		c.fail("record_before_handshake")
		return
	}
	if c.mode != ModeSeqBound {
		c.processExplicitSeq(body)
		return
	}
	nonce := c.nonce(!c.isClient, c.recvSeq)
	aad := c.additionalData(RecordApplication, c.recvSeq, len(body))
	plain, err := c.aead.Open(body[:0], nonce, body, aad)
	if err != nil {
		// Seq-check / authentication failure: a delayed record delivered
		// out of its original order lands here and raises an alert.
		c.emit("record_bad", c.label, int64(c.recvSeq))
		c.fail("bad_record_mac")
		return
	}
	// Seq-check pass: the record arrived in its original order, so a
	// phantom-delayed release verifies cleanly.
	c.emit("record_ok", c.label, int64(c.recvSeq))
	c.recvSeq++
	if c.OnMessage != nil {
		c.OnMessage(plain)
	}
}

// fail raises an alert, aborts the transport and reports ErrBadRecord —
// the loud, detectable outcome the paper's attack never produces.
func (c *Conn) fail(desc string) {
	c.alertsRaised++
	if c.trace != nil {
		c.emit("alert_raised", c.label+":"+desc, 0)
	}
	_ = c.tcp.Send(plainRecord(RecordAlert, []byte(desc)))
	c.tcp.Close()
	c.teardown(fmt.Errorf("%w (%s)", ErrBadRecord, desc))
}

func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// seal returns one sealed record in a fresh slice.
func (c *Conn) seal(typ RecordType, plain []byte) []byte {
	return c.appendSealed(make([]byte, 0, ModeOverhead(c.mode)+len(plain)), typ, plain)
}

// appendSealed appends one sealed record (header included) to dst and
// advances the send sequence. Seq-bound records carry only the AES-GCM
// ciphertext, bound to the implicit sequence; the explicit-sequence modes
// (see replay.go) put the 8-byte sequence on the wire ahead of the
// ciphertext (legacy nonce) or of the raw plaintext (null cipher). The
// sender advances its counter in every mode — the explicit modes' weakness
// is on the receive path, which trusts the carried sequence. plain must
// not overlap dst's spare capacity.
func (c *Conn) appendSealed(dst []byte, typ RecordType, plain []byte) []byte {
	seq := c.sendSeq
	c.sendSeq++
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	if c.mode != ModeSeqBound {
		dst = binary.BigEndian.AppendUint64(dst, seq)
	}
	if c.mode == ModeNullCipher {
		dst = append(dst, plain...)
	} else {
		aad := c.additionalData(typ, seq, len(plain)+16)
		dst = c.aead.Seal(dst, c.nonce(c.isClient, seq), plain, aad)
	}
	fillHeader(dst[start:], typ, len(dst)-start-HeaderLen)
	return dst
}

func plainRecord(typ RecordType, body []byte) []byte {
	rec := make([]byte, HeaderLen+len(body))
	fillHeader(rec, typ, len(body))
	copy(rec[HeaderLen:], body)
	return rec
}

func fillHeader(rec []byte, typ RecordType, n int) {
	rec[0] = byte(typ)
	rec[1] = 0x03
	rec[2] = 0x03
	binary.BigEndian.PutUint16(rec[3:5], uint16(n))
}

// nonce returns the AEAD nonce of the record with sequence seq sent by the
// client (fromClient) or the server: byte 0 is the direction — 0 for
// client→server, 1 for server→client — and bytes 4..11 the sequence.
func (c *Conn) nonce(fromClient bool, seq uint64) []byte {
	c.nonceBuf[0] = 1
	if fromClient {
		c.nonceBuf[0] = 0
	}
	binary.BigEndian.PutUint64(c.nonceBuf[4:], seq)
	return c.nonceBuf[:]
}

func (c *Conn) additionalData(typ RecordType, seq uint64, bodyLen int) []byte {
	binary.BigEndian.PutUint64(c.aadBuf[0:8], seq)
	c.aadBuf[8] = byte(typ)
	c.aadBuf[9] = 0x03
	c.aadBuf[10] = 0x03
	binary.BigEndian.PutUint16(c.aadBuf[11:13], uint16(bodyLen))
	return c.aadBuf[:]
}
