package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// fuzzSeeds are valid encoded frames covering every message shape the
// protocol uses, so the fuzzer starts from deep inside the format instead of
// random bytes.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	peers := []PeerInfo{
		{Addr: "10.0.0.1:7001", Coord: []float64{1, 2, 3}, Capacity: 10},
		{Addr: "10.0.0.2:7002", Coord: []float64{-4, 5}, Capacity: 100, CoordErr: 0.25},
	}
	msgs := []Message{
		{},
		{Type: TProbe, From: peers[0], ReqID: 7},
		{Type: TProbeResp, From: peers[1], ReqID: 7, Neighbors: peers},
		{Type: TAdvertise, From: peers[0], GroupID: "g", Rendezvous: peers[1],
			TTL: 7, MsgID: 99, Mode: ReliableOrdered, Epoch: 3},
		{Type: TJoin, From: peers[0], GroupID: "g", Subscriber: peers[0],
			Rendezvous: peers[1], ReqID: 12, Path: []string{"a", "b"}},
		{Type: TPayload, From: peers[0], GroupID: "g", Seq: 42, Relay: peers[1],
			Data: bytes.Repeat([]byte("x"), 1024), TraceID: 5, Hops: 3,
			OriginAt: time.Unix(1700000000, 0), RelayedAt: time.Unix(1700000001, 0)},
		{Type: TBeacon, From: peers[1], GroupID: "g", Path: []string{"r"},
			Mode: Reliable, Backups: peers, Epoch: 2, Deputies: peers,
			Charter: Charter{GroupID: "g", Mode: Reliable, Epoch: 2,
				Deputies: peers, HighWater: []DigestEntry{{Source: "s", High: 9}}}},
		{Type: TNack, From: peers[0], GroupID: "g", NackSource: "s",
			NackSeqs: []uint64{1, 2, 3}, Origin: peers[0], TTL: 4},
		{Type: TDigest, From: peers[0], GroupID: "g", Mode: Reliable,
			Digest: []DigestEntry{{Source: "a", High: 10}, {Source: "b", High: 20}}},
		{Type: THandoff, From: peers[0], GroupID: "g", Epoch: 5,
			Charter: Charter{GroupID: "g", Epoch: 5, Deputies: peers}},
		{Type: TDhtFindNode, From: peers[0], ReqID: 21,
			Target: bytes.Repeat([]byte{0x5a}, 20)},
		{Type: TDhtFindValueResp, From: peers[1], ReqID: 22, GroupID: "g",
			Rendezvous: peers[0], Mode: Reliable, Epoch: 4, Neighbors: peers,
			Charter: Charter{GroupID: "g", Mode: Reliable, Epoch: 4, Deputies: peers}},
		{Type: TDhtStore, From: peers[0], ReqID: 23, GroupID: "g",
			Rendezvous: peers[1], Mode: Reliable, Epoch: 4,
			Charter: Charter{GroupID: "g", Epoch: 4}},
		{Type: TTelemetry, From: peers[0],
			Health: []HealthDigest{
				{Addr: "10.0.0.1:7001", Epoch: 12, Utility: 0.5, Pressure: 0.25,
					P99Ms: 4.5, Inbox: 3, Delivered: 4100, Shed: 2, Degraded: true},
				{Addr: "10.0.0.2:7002", Epoch: 9, Delivered: 100}}},
		{Type: THeartbeat, From: peers[1], SentAt: time.Unix(1700000003, 0),
			Health: []HealthDigest{
				{Addr: "10.0.0.2:7002", Epoch: 9, Pressure: 1, Degraded: true}}},
	}
	out := make([][]byte, 0, len(msgs))
	for i := range msgs {
		frame, err := EncodeMessage(&msgs[i])
		if err != nil {
			tb.Fatalf("seed %d: %v", i, err)
		}
		out = append(out, frame)
	}
	return out
}

// FuzzDecodeMessage holds the decoder to its contract: arbitrary input must
// either decode (and then re-encode/re-decode consistently) or return an
// error — never panic and never allocate past the frame cap.
func FuzzDecodeMessage(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// Every shape again behind the reserved type byte 0xFF, which must fail
	// on the header: decoded, it would be a Message the encoder refuses.
	for _, seed := range seeds {
		reserved := append([]byte{}, seed...)
		reserved[3] = reservedType
		f.Add(reserved)
	}
	// Hostile prefixes that do not start with the magic (a retired-dialect
	// gob frame always began 0x00): huge length, zero length, truncations.
	for _, h := range hostileHeaders {
		f.Add(h.data)
	}
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 1<<30)
	f.Add(huge)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 5, 1, 2})
	// Hostile binary headers: bad magic, unknown version, oversized binary
	// length, the reserved type over a short body and over an empty one.
	f.Add([]byte{'G', 'X', 2, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{'G', 'C', 9, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{'G', 'C', 2, 1, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{'G', 'C', 2, 0xFF, 3, 0, 0, 0, 1, 200, 0})
	f.Add([]byte{'G', 'C', 2, 0xFF, 0, 0, 0, 0})
	// Truncations and an oversized tail of a real beacon frame.
	beacon := seeds[6]
	for _, cut := range []int{1, 4, 8, 9, len(beacon) / 2, len(beacon) - 1} {
		f.Add(beacon[:cut])
	}
	f.Add(append(append([]byte{}, beacon...), 0xEE))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// A successful decode must survive a round trip through the binary
		// encoder.
		enc, err := EncodeMessage(&msg)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		back, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !msgEquivalent(&back, &msg) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, msg)
		}
	})
}
