package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// readAll decodes every frame of r until a clean end of stream.
func readAll(t *testing.T, r io.Reader) []Message {
	t.Helper()
	fr := NewFrameReader(r)
	var out []Message
	for {
		var msg Message
		err := fr.ReadMessage(&msg)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, msg)
	}
}

// TestSplitReadsDecodeAlike: a stream read one byte at a time, or half of
// each request at a time, decodes to exactly the messages it decodes to in
// one piece — the reader never depends on a frame arriving in one read.
func TestSplitReadsDecodeAlike(t *testing.T) {
	var msgs []Message
	for _, name := range []string{"payload", "beacon", "digest", "heartbeat"} {
		msgs = append(msgs, *benchMessages()[name])
	}
	big := *benchMessages()["payload"]
	big.Data = bytes.Repeat([]byte("x"), 5000)
	msgs = append(msgs, big, msgs[0])
	stream := encodeStream(t, msgs)

	whole := readAll(t, bytes.NewReader(stream))
	if !reflect.DeepEqual(whole, msgs) {
		t.Fatalf("whole stream decoded to %+v, want %+v", whole, msgs)
	}
	for name, r := range map[string]io.Reader{
		"one byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"half":     iotest.HalfReader(bytes.NewReader(stream)),
	} {
		if got := readAll(t, r); !reflect.DeepEqual(got, whole) {
			t.Errorf("%s reads: decoded %+v, want %+v", name, got, whole)
		}
	}
}

// repeatReader replays one frame forever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestWarmReaderAllocatesOnlyData: once a reader has seen a sender, each
// further payload frame from it allocates once, for the frame body that the
// message owns and its Data aliases. The sender's and relay's addresses and
// coordinates come from the reader's intern table.
func TestWarmReaderAllocatesOnlyData(t *testing.T) {
	frame, err := EncodeMessage(benchMessages()["payload"])
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&repeatReader{frame: frame})
	var msg Message
	const frames = 1000
	decode := func() {
		for i := 0; i < frames; i++ {
			if err := fr.ReadMessage(&msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if got := testing.AllocsPerRun(1, decode) / frames; got != 1 {
		t.Errorf("warm payload decode allocates %.3f times per frame, want 1 (the payload's frame body)", got)
	}
}

// TestDecodedBytesOutliveTheFrame: a payload's Data aliases a frame body of
// its own, capped at its length so an append cannot reach the bytes after
// it, and a DHT query's Target is copied out of the reused frame buffer;
// both keep their bytes while the reader decodes the frames after them.
func TestDecodedBytesOutliveTheFrame(t *testing.T) {
	msgs := []Message{
		{Type: TPayload, GroupID: "g", Seq: 1, Data: []byte("first"), TraceID: 7},
		{Type: TDhtFindNode, ReqID: 2, Target: bytes.Repeat([]byte{0x5a}, 20)},
		{Type: TPayload, GroupID: "g", Seq: 2, Data: []byte("second")},
		{Type: TDhtFindNode, ReqID: 3, Target: bytes.Repeat([]byte{0xa5}, 20)},
	}
	got := readAll(t, bytes.NewReader(encodeStream(t, msgs)))
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("decoded %+v, want %+v", got, msgs)
	}
	for _, i := range []int{0, 2} {
		if d := got[i].Data; cap(d) != len(d) {
			t.Errorf("payload %d: Data has cap %d beyond its %d bytes", i, cap(d), len(d))
		}
	}
}

// TestChangedCoordGetsFreshSlice: a sender whose coordinate moved gets a
// new slice, and the message decoded before the move keeps its coordinate.
// Unchanged coordinates share one slice.
func TestChangedCoordGetsFreshSlice(t *testing.T) {
	p1, _ := benchPeers()
	first := Message{Type: TPayload, From: p1, Data: []byte("a")}
	moved := first
	moved.From.Coord = []float64{12.5, -3.0}
	msgs := []Message{first, first, moved, moved}
	fr := NewFrameReader(bytes.NewReader(encodeStream(t, msgs)))
	got := make([]Message, len(msgs))
	for i := range got {
		if err := fr.ReadMessage(&got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if &got[0].From.Coord[0] != &got[1].From.Coord[0] {
		t.Error("an unchanged coordinate was decoded into a new slice")
	}
	if &got[1].From.Coord[0] == &got[2].From.Coord[0] {
		t.Fatal("a changed coordinate reused the previous slice")
	}
	if !reflect.DeepEqual(got[1].From.Coord, p1.Coord) {
		t.Errorf("earlier message's coordinate became %v, want %v", got[1].From.Coord, p1.Coord)
	}
	if !reflect.DeepEqual(got[2].From.Coord, moved.From.Coord) {
		t.Errorf("moved coordinate decoded as %v, want %v", got[2].From.Coord, moved.From.Coord)
	}
	if &got[2].From.Coord[0] != &got[3].From.Coord[0] {
		t.Error("the moved coordinate did not replace the cached one")
	}
}

// TestInternTableBounded: a reader fed more distinct addresses than
// internMaxEntries keeps at most that many strings and coordinates, caches
// no coordinate or address longer than internMaxLen bytes, and still
// decodes every frame correctly.
func TestInternTableBounded(t *testing.T) {
	const senders = internMaxEntries + 100
	long := strings.Repeat("h", internMaxLen) + ":7000"
	wide := make([]float64, internMaxLen/8+1)
	var msgs []Message
	for i := 0; i < senders; i++ {
		msgs = append(msgs, Message{Type: THeartbeat, From: PeerInfo{
			Addr: fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256), Coord: []float64{float64(i), 1}}})
	}
	msgs = append(msgs,
		Message{Type: THeartbeat, From: PeerInfo{Addr: long, Coord: []float64{1, 2}}},
		Message{Type: THeartbeat, From: PeerInfo{Addr: "wide:7000", Coord: wide}})
	fr := NewFrameReader(bytes.NewReader(encodeStream(t, msgs)))
	for i := range msgs {
		var msg Message
		if err := fr.ReadMessage(&msg); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(msg.From, msgs[i].From) {
			t.Fatalf("frame %d decoded %+v, want %+v", i, msg.From, msgs[i].From)
		}
	}
	if n := len(fr.intern.m); n > internMaxEntries {
		t.Errorf("%d interned strings, want at most %d", n, internMaxEntries)
	}
	if n := len(fr.intern.coords); n > internMaxEntries {
		t.Errorf("%d cached coordinates, want at most %d", n, internMaxEntries)
	}

	// A fresh reader has room; oversized entries still stay out.
	fr = NewFrameReader(bytes.NewReader(encodeStream(t, msgs[senders:])))
	for range msgs[senders:] {
		var msg Message
		if err := fr.ReadMessage(&msg); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(fr.intern.coords); n != 0 {
		t.Errorf("cached %d coordinates for a long address or a wide vector, want none", n)
	}
}
