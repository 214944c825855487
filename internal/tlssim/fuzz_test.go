package tlssim

import (
	"testing"
	"time"
)

// FuzzRecordStream: arbitrary bytes must never panic the record parser —
// fed in two chunks to a server still waiting for its hello and to both
// ends of established sessions in every replay mode — nor the
// capture-side readers.
func FuzzRecordStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(plainRecord(RecordHandshake, make([]byte, helloLen)))
	f.Add(plainRecord(RecordHandshake, append(make([]byte, helloLen), byte(ModeNullCipher), 8)))
	f.Add(plainRecord(RecordAlert, []byte("bad_record_mac")))
	f.Add(plainRecord(RecordType(99), []byte("junk")))
	f.Add([]byte{byte(RecordApplication), 3, 3, 0xff, 0xff, 1, 2})
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
		// Envs are deterministic, so these records verify on the fuzz
		// body's fresh sessions of the same mode.
		rec := newModeEnv(f, mode, 4).cli.seal(RecordApplication, []byte("event: door open"))
		f.Add(append(rec, rec...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadPlaintext(data)
		HelloMode(data)
		feed := func(c *Conn) {
			half := len(data) / 2
			c.onData(data[:half])
			c.onData(data[half:])
		}
		l := newHelloLab(t, nil)
		feed(l.srv)
		l.clk.RunFor(time.Second)
		for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
			e := newModeEnv(t, mode, 4)
			feed(e.srv)
			feed(e.cli)
			e.clk.RunFor(time.Second)
		}
	})
}
