package tlssim

import (
	"bytes"
	"testing"
	"time"
)

// TestSendMatchesSeal pins the contract Send's reused sealing scratch rests
// on: in every replay mode the bytes Send puts on the wire equal what seal
// returns for the same session state, and a second Send (which rebuilds the
// scratch in place) leaves the first message intact at the receiver —
// tcpsim copies the record before Send returns.
func TestSendMatchesSeal(t *testing.T) {
	msgs := [][]byte{[]byte("event: door open"), []byte("keepalive")}
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
		t.Run(mode.String(), func(t *testing.T) {
			// Same offer, same source seed: both envs hold the same keys.
			var want []byte
			ref := newModeEnv(t, mode, 0)
			for _, m := range msgs {
				want = append(want, ref.cli.seal(RecordApplication, m)...)
			}

			e := newModeEnv(t, mode, 0)
			var wire []byte
			var got []string
			open := e.srv.TCP().OnData
			e.srv.TCP().OnData = func(b []byte) {
				wire = append(wire, b...)
				open(b)
			}
			e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
			for _, m := range msgs {
				if err := e.cli.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			e.clk.RunFor(time.Second)

			if !bytes.Equal(wire, want) {
				t.Fatalf("Send wire bytes differ from seal:\n got %x\nwant %x", wire, want)
			}
			if len(got) != len(msgs) || got[0] != string(msgs[0]) || got[1] != string(msgs[1]) {
				t.Fatalf("delivered %q, want %q", got, msgs)
			}
			if e.srv.AlertsRaised() != 0 || e.cli.AlertsRaised() != 0 {
				t.Fatal("alert raised on in-order delivery")
			}
		})
	}
}
