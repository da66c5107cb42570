package wire

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// Codec benchmarks. The decode side replays a pre-encoded stream so the codec
// is measured steady-state, as on a live connection: the reader keeps its
// string-intern table warm the same way a long-lived link would.

// benchPeer/benchMessages are the traffic shapes the hot path actually
// carries: a chat-sized payload relayed down a tree, a beacon with a
// replicated charter, an anti-entropy digest, and a heartbeat.
func benchPeers() (PeerInfo, PeerInfo) {
	return PeerInfo{Addr: "10.0.0.1:7000", Coord: []float64{12.5, -3.25}, Capacity: 50},
		PeerInfo{Addr: "10.0.0.2:7000", Coord: []float64{8, 41.5}, Capacity: 10, CoordErr: 0.25}
}

func benchMessages() map[string]*Message {
	p1, p2 := benchPeers()
	t0 := time.Unix(1700000000, 123456789)
	return map[string]*Message{
		"payload": {Type: TPayload, From: p1, GroupID: "chat", Seq: 42, Relay: p2,
			Data: bytes.Repeat([]byte("m"), 256), TraceID: 7, Hops: 2,
			OriginAt: t0, RelayedAt: t0.Add(time.Millisecond)},
		"beacon": {Type: TBeacon, From: p1, GroupID: "chat", Epoch: 9,
			Mode: ReliableOrdered, Path: []string{"10.0.0.1:7000"},
			Backups: []PeerInfo{p2}, Deputies: []PeerInfo{p2},
			Charter: Charter{GroupID: "chat", Mode: ReliableOrdered, Epoch: 9,
				Deputies:  []PeerInfo{p2},
				HighWater: []DigestEntry{{Source: "10.0.0.2:7000", High: 41}}}},
		"digest": {Type: TDigest, From: p1, GroupID: "chat", Mode: Reliable,
			Digest: []DigestEntry{
				{Source: "10.0.0.1:7000", High: 1041},
				{Source: "10.0.0.2:7000", High: 977},
				{Source: "10.0.0.3:7000", High: 64},
				{Source: "10.0.0.4:7000", High: 12}}},
		"heartbeat": {Type: THeartbeat, From: p1, SentAt: t0},
	}
}

// benchStream replays a pre-encoded frame stream for decode benchmarks. The
// stream holds one warm-up frame plus chunk identical frames; when the chunk
// is exhausted the stream rewinds and re-reads the warm-up frame with the
// benchmark timer stopped, so interning costs never pollute the per-op
// numbers.
type benchStream struct {
	data  []byte
	rd    *bytes.Reader
	fr    *FrameReader
	left  int
	chunk int
}

func newBenchStream(tb testing.TB, msg *Message, chunk int) *benchStream {
	tb.Helper()
	var data []byte
	for i := 0; i < chunk+1; i++ {
		var err error
		if data, err = AppendMessage(data, msg); err != nil {
			tb.Fatal(err)
		}
	}
	return &benchStream{data: data, rd: new(bytes.Reader), chunk: chunk}
}

func (s *benchStream) next(b *testing.B, msg *Message) {
	if s.left == 0 {
		b.StopTimer()
		s.rd.Reset(s.data)
		s.fr = NewFrameReader(s.rd)
		if err := s.fr.ReadMessage(msg); err != nil {
			b.Fatal(err)
		}
		s.left = s.chunk
		b.StartTimer()
	}
	if err := s.fr.ReadMessage(msg); err != nil {
		b.Fatal(err)
	}
	s.left--
}

const benchChunk = 4096

func BenchmarkEncodeBinary(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			var scratch []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := AppendMessage(scratch[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
				scratch = out
			}
		})
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			s := newBenchStream(b, msg, benchChunk)
			var got Message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.next(b, &got)
			}
		})
	}
}

// relayFanout is the tree fan-out a relay hop pays (parent + children minus
// the arrival link; 3 is a typical interior node).
const relayFanout = 3

// BenchmarkRelayHopBinary is the headline number of docs/PERFORMANCE.md: one
// relay hop on the binary path — decode an inbound payload frame, restamp the
// relay fields, encode ONCE into a reused buffer, and write the same bytes to
// every tree link (the transport's SendMany fast path).
func BenchmarkRelayHopBinary(b *testing.B) {
	msg := benchMessages()["payload"]
	s := newBenchStream(b, msg, benchChunk)
	var (
		got     Message
		scratch []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.next(b, &got)
		got.Relay = got.From
		got.Hops++
		frame, err := AppendMessage(scratch[:0], &got)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < relayFanout; j++ {
			if _, err := io.Discard.Write(frame); err != nil {
				b.Fatal(err)
			}
		}
		scratch = frame
	}
}

// relayAllocBudget is the committed allocation budget for one binary relay
// hop (decode + re-encode + fan-out). The measured value is 1 alloc/op (the
// payload's frame body, which the decoded Data aliases; coordinates and
// strings come from the reader's intern table); the budget leaves modest
// headroom, not an order of magnitude.
const relayAllocBudget = 2

// TestRelayAllocBudget fails when the relay hot path regresses above its
// allocation budget.
func TestRelayAllocBudget(t *testing.T) {
	res := testing.Benchmark(BenchmarkRelayHopBinary)
	if got := res.AllocsPerOp(); got > relayAllocBudget {
		t.Errorf("binary relay hop allocates %d/op, over the committed budget of %d", got, relayAllocBudget)
	}
}
