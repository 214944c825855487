package mqttsim

import (
	"testing"
	"time"
)

// BenchmarkMQTTPublishRoundTrip measures one acknowledged publish on a
// connected session: the client marshals and seals a PUBLISH, TCP carries
// it to the broker, which opens and decodes it and answers a PUBACK the
// same way back. A device's event report is this exchange, so it is the
// per-event cost of every layer from the application down to the segment.
func BenchmarkMQTTPublishRoundTrip(b *testing.B) {
	e := newEnv(BrokerConfig{})
	published, acked := 0, 0
	e.broker.OnPublish = func(*Session, Packet) { published++ }
	cli := e.dial(defaultCfg())
	cli.OnPubAck = func(uint16) { acked++ }
	e.clk.RunFor(time.Second)
	if !cli.Connected() {
		b.Fatal("client never connected")
	}
	payload := []byte("open")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Publish("contact/state", payload, 256, true); err != nil {
			b.Fatal(err)
		}
		e.clk.RunFor(20 * time.Millisecond)
	}
	b.StopTimer()
	if published != b.N || acked != b.N {
		b.Fatalf("%d publishes: broker saw %d, client got %d acks", b.N, published, acked)
	}
}
