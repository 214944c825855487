package tcpsim

import (
	"testing"
	"time"
)

// TestSteadyRoundTripAllocFree pins the steady state of a long-lived
// connection: once warm, a data segment out and its ACK back allocate
// nothing — payload chunks come from the stack's pool and the
// retransmission queue compacts in place on every ACK, so its backing
// array is reused instead of sliding forward and reallocating.
func TestSteadyRoundTripAllocFree(t *testing.T) {
	e := newEnv(Config{EnableKeepAlive: true, KeepAliveIdle: 30 * time.Second})
	cli, srv := e.connect(t, 443)
	received := 0
	srv.OnData = func(b []byte) { received += len(b) }
	payload := make([]byte, 64)
	roundTrip := func() {
		for j := 0; j < 3; j++ {
			if err := cli.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		e.clk.RunFor(20 * time.Millisecond)
	}
	roundTrip() // warm the chunk pool, the queue and the event heap
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("steady send/ACK round trip allocates %v times, want 0", allocs)
	}
	if received != 102*3*len(payload) || len(cli.rtxq) != 0 {
		t.Fatalf("received %d bytes with %d segments unacknowledged", received, len(cli.rtxq))
	}
}
