package tcpsim

import (
	"testing"
	"time"
)

// TestSteadyRoundTripAllocFree pins the steady state of a long-lived
// connection: once warm, data segments out and their ACKs back allocate
// nothing — payload chunks come from the stack's pool and the
// retransmission queue compacts in place on every ACK, so its backing
// array is reused instead of sliding forward and reallocating. The mixed
// case alternates hello-sized and record-sized writes: chunks are
// allocated at the size of the write, so the warm pool must serve either
// size from chunks it already holds; a pool that allocated on every size
// change would also grow without bound.
func TestSteadyRoundTripAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"uniform", []int{64, 64, 64}},
		{"mixed", []int{53, 1163}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(Config{EnableKeepAlive: true, KeepAliveIdle: 30 * time.Second})
			cli, srv := e.connect(t, 443)
			received, perRound := 0, 0
			srv.OnData = func(b []byte) { received += len(b) }
			var payloads [][]byte
			for _, n := range tc.sizes {
				payloads = append(payloads, make([]byte, n))
				perRound += n
			}
			roundTrip := func() {
				for _, p := range payloads {
					if err := cli.Send(p); err != nil {
						t.Fatal(err)
					}
				}
				e.clk.RunFor(20 * time.Millisecond)
			}
			roundTrip() // warm the chunk pool, the queue and the event heap
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("steady send/ACK round trip of %v-byte writes allocates %v times, want 0", tc.sizes, allocs)
			}
			if received != 102*perRound || len(cli.rtxq) != 0 {
				t.Fatalf("received %d of %d bytes with %d segments unacknowledged", received, 102*perRound, len(cli.rtxq))
			}
		})
	}
}
