package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/hapsim"
	"repro/internal/httpsim"
	"repro/internal/mqttsim"
)

// TestPaddedMarshalStableAndSingleAlloc pins the application protocols'
// padded encodings: each equals its unpadded encoding followed by zeros,
// matches a golden digest, and costs one allocation — the writer is sized
// to the padded length up front, so neither the fields nor PadTo grow it.
func TestPaddedMarshalStableAndSingleAlloc(t *testing.T) {
	cases := []struct {
		name    string
		marshal func(padTo int) []byte
		padTo   int
		golden  string
	}{
		{
			name: "httpsim",
			marshal: httpsim.Message{
				Type: httpsim.MsgRequest, ID: 7, DeviceID: "tplink-plug-01", Path: "/event",
				Status: httpsim.StatusOK, Body: []byte("switch=on"), Timestamp: 123456789,
			}.Marshal,
			padTo:  180,
			golden: "8fddfd161bd2b92f",
		},
		{
			name: "mqttsim",
			marshal: mqttsim.Packet{
				Type: mqttsim.PacketPublish, Topic: "home/c2/contact", ID: 9,
				Payload: []byte("open"), Timestamp: 987654321,
			}.Marshal,
			padTo:  150,
			golden: "3cd8e26329e9858d",
		},
		{
			name: "hapsim",
			marshal: hapsim.Message{
				Type: hapsim.MsgEvent, AccessoryID: "eve-door-01", ID: 3,
				Characteristic: "contact", Value: "open", Timestamp: 42,
			}.Marshal,
			padTo:  120,
			golden: "5a66e70939aa61bb",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare := tc.marshal(0)
			got := tc.marshal(tc.padTo)
			want := append(bare, make([]byte, tc.padTo-len(bare))...)
			if !bytes.Equal(got, want) {
				t.Fatalf("padded encoding is not the bare encoding plus zeros:\n got %x\nwant %x", got, want)
			}
			sum := sha256.Sum256(got)
			if h := hex.EncodeToString(sum[:8]); h != tc.golden {
				t.Fatalf("encoding digest = %s, want %s", h, tc.golden)
			}
			if allocs := testing.AllocsPerRun(100, func() { tc.marshal(tc.padTo) }); allocs != 1 {
				t.Fatalf("padded Marshal allocates %v times, want 1", allocs)
			}
		})
	}
}
