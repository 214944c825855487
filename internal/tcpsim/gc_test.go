package tcpsim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedConnsAreCollected opens and closes many connections on one
// stack pair and requires every closed Conn to become garbage: a stack
// must not keep closed connections — and, through their OnData/OnClose
// closures, whatever session layer sits above them — alive for its own
// lifetime.
//
// The finalizer sits on a marker object that only the Conn's callbacks
// reference, not on the Conn itself: a Conn is in a cycle with its timers
// (each timer's callback is a method value bound to the Conn), and the
// runtime never finalizes an object reachable from its own referents. The
// marker is collected exactly when its Conn is.
func TestClosedConnsAreCollected(t *testing.T) {
	const n = 50
	e := newEnv(Config{})
	var finalized atomic.Int32
	track := func(c *Conn) {
		marker := new([16]byte)
		runtime.SetFinalizer(marker, func(*[16]byte) { finalized.Add(1) })
		c.OnData = func([]byte) { _ = marker[0] }
		c.OnClose = func(error) { _ = marker[1] }
	}
	if _, err := e.server.Listen(443, track); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 443})
		track(cli)
		e.clk.RunFor(time.Second)
		if cli.State() != StateEstablished {
			t.Fatalf("conn %d: state %v, want established", i, cli.State())
		}
		cli.Close()
		e.clk.RunFor(time.Minute)
		if cli.State() != StateClosed {
			t.Fatalf("conn %d: state %v after close, want closed", i, cli.State())
		}
	}
	if c, s := e.client.ConnCount(), e.server.ConnCount(); c != 0 || s != 0 {
		t.Fatalf("live conns after closing all: client %d, server %d", c, s)
	}
	for i := 0; i < 20 && finalized.Load() < 2*n; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := finalized.Load(); got < 2*n {
		t.Fatalf("%d of %d closed conns collected; the stack keeps the rest reachable", got, 2*n)
	}
	runtime.KeepAlive(e)
}
