package tlssim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// BenchmarkHandshake measures one session handshake — key shares and
// randoms drawn, hellos exchanged, both directions keyed — over a TCP
// connection that stays up, so TCP setup is not in the loop. Each
// operation starts a fresh Server and Client on that connection, as cloud
// endpoints do on accept.
func BenchmarkHandshake(b *testing.B) {
	e := newEnv(b)
	cliTCP, srvTCP := e.cli.TCP(), e.srv.TCP()
	rng := simtime.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := Server(srvTCP, rng)
		cli := Client(cliTCP, rng)
		e.clk.RunFor(10 * time.Millisecond)
		if !cli.Established() || !srv.Established() {
			b.Fatal("handshake did not complete")
		}
	}
}

// BenchmarkRecordSealOpen measures one application record through the
// seq-bound AEAD path: sealed by the client, authenticated and opened by
// the server, with no transport in between.
func BenchmarkRecordSealOpen(b *testing.B) {
	e := newEnv(b)
	msg := make([]byte, 64)
	delivered := 0
	e.srv.OnMessage = func([]byte) { delivered++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := e.cli.seal(RecordApplication, msg)
		e.srv.processApplication(rec[HeaderLen:])
	}
	b.StopTimer()
	if delivered != b.N || e.srv.AlertsRaised() != 0 {
		b.Fatalf("delivered %d of %d records, %d alerts", delivered, b.N, e.srv.AlertsRaised())
	}
}
