package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// unsafeStringData exposes a string's backing pointer so the interning test
// can assert identity, not just equality.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// testMessages covers every message shape the protocol uses, including every
// field at least once. Shared by round-trip, cross-version, and benchmark
// code.
func testMessages() []Message {
	peers := []PeerInfo{
		{Addr: "10.0.0.1:7001", Coord: []float64{1.5, -2.25, 3}, Capacity: 100, CoordErr: 0.3},
		{Addr: "10.0.0.2:7002", Coord: []float64{-4, 5}, Capacity: 10},
	}
	return []Message{
		{},
		{Type: TProbe, From: peers[0], ReqID: 7},
		{Type: TProbeResp, From: peers[1], ReqID: 7, Neighbors: peers},
		{Type: TAdvertise, From: peers[0], GroupID: "g", Rendezvous: peers[1],
			TTL: 7, MsgID: 99, Mode: ReliableOrdered, Epoch: 3, TraceID: 12},
		{Type: TJoin, From: peers[0], GroupID: "g", Subscriber: peers[0],
			Rendezvous: peers[1], ReqID: 12, Path: []string{"a", "b"}},
		{Type: TJoinAck, From: peers[1], GroupID: "g", ReqID: 12, Mode: Reliable,
			Path: []string{"r"}, Backups: peers},
		{Type: TSearch, From: peers[0], GroupID: "g", Origin: peers[0],
			TTL: 2, MsgID: 41},
		{Type: TPayload, From: peers[0], GroupID: "g", Seq: 42, Relay: peers[1],
			Data: bytes.Repeat([]byte("x"), 1024), TraceID: 5, Hops: 3,
			OriginAt: time.Unix(1700000000, 123), RelayedAt: time.Unix(1700000001, 456)},
		{Type: TBeacon, From: peers[1], GroupID: "g", Path: []string{"r"},
			Mode: Reliable, Backups: peers, Epoch: 2, Deputies: peers,
			Charter: Charter{GroupID: "g", Mode: Reliable, Epoch: 2,
				Deputies: peers, HighWater: []DigestEntry{{Source: "s", High: 9}}}},
		{Type: THeartbeat, From: peers[0], SentAt: time.Unix(1700000002, 789)},
		{Type: TNack, From: peers[0], GroupID: "g", NackSource: "s",
			NackSeqs: []uint64{1, 2, 1 << 40}, Origin: peers[0], TTL: 4},
		{Type: TDigest, From: peers[0], GroupID: "g", Mode: Reliable,
			Digest: []DigestEntry{{Source: "a", High: 10}, {Source: "b", High: 1 << 50}}},
		{Type: THandoff, From: peers[0], GroupID: "g", Epoch: 5,
			Charter: Charter{GroupID: "g", Epoch: 5, Deputies: peers}},
		{Type: TLeave, From: peers[1], GroupID: "g"},
		{Type: TDhtFindNode, From: peers[0], ReqID: 31,
			Target: bytes.Repeat([]byte{0xab}, 20)},
		{Type: TDhtFindNodeResp, From: peers[1], ReqID: 31, Neighbors: peers},
		{Type: TDhtFindValue, From: peers[0], ReqID: 32, GroupID: "g"},
		{Type: TDhtFindValueResp, From: peers[1], ReqID: 32, GroupID: "g",
			Rendezvous: peers[0], Mode: Reliable, Epoch: 4,
			Charter: Charter{GroupID: "g", Mode: Reliable, Epoch: 4, Deputies: peers}},
		{Type: TDhtStore, From: peers[0], ReqID: 33, GroupID: "g",
			Rendezvous: peers[0], Mode: Reliable, Epoch: 4,
			Charter: Charter{GroupID: "g", Mode: Reliable, Epoch: 4, Deputies: peers}},
		{Type: TDhtStoreAck, From: peers[1], ReqID: 33, GroupID: "g", Epoch: 4},
		{Type: THeartbeat, From: peers[0], SentAt: time.Unix(1700000002, 789),
			Health: []HealthDigest{
				{Addr: "10.0.0.1:7001", Epoch: 12, Utility: 0.5, Pressure: 0.25,
					P99Ms: 4.5, Inbox: 3, Delivered: 1 << 33, Shed: 2, Degraded: true}}},
		{Type: TTelemetry, From: peers[1],
			Health: []HealthDigest{
				{Addr: "10.0.0.2:7002", Epoch: 9, Delivered: 100},
				{Addr: "10.0.0.1:7001", Epoch: 11, Utility: 1, Pressure: 1,
					P99Ms: 250, Inbox: 64, Delivered: 7, Shed: 1 << 40}}},
	}
}

// msgEquivalent compares messages up to time representation: the binary
// codec transports timestamps as Unix nanoseconds, so decoded times are
// .Equal to — but not DeepEqual with — what was encoded.
func msgEquivalent(a, b *Message) bool {
	if !a.SentAt.Equal(b.SentAt) || !a.OriginAt.Equal(b.OriginAt) || !a.RelayedAt.Equal(b.RelayedAt) {
		return false
	}
	ca, cb := *a, *b
	ca.SentAt, cb.SentAt = time.Time{}, time.Time{}
	ca.OriginAt, cb.OriginAt = time.Time{}, time.Time{}
	ca.RelayedAt, cb.RelayedAt = time.Time{}, time.Time{}
	return reflect.DeepEqual(ca, cb)
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	for i, msg := range testMessages() {
		frame, err := AppendMessage(nil, &msg)
		if err != nil {
			t.Fatalf("msg %d (%s): encode: %v", i, msg.Type, err)
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("msg %d (%s): decode: %v", i, msg.Type, err)
		}
		if !msgEquivalent(&got, &msg) {
			t.Fatalf("msg %d (%s) mismatch:\n got %+v\nwant %+v", i, msg.Type, got, msg)
		}
	}
}

func TestBinaryStreamRoundTrip(t *testing.T) {
	msgs := testMessages()
	fr := NewFrameReader(bytes.NewReader(encodeStream(t, msgs)))
	for i := range msgs {
		var got Message
		if err := fr.ReadMessage(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !msgEquivalent(&got, &msgs[i]) {
			t.Fatalf("message %d mismatch:\n got %+v\nwant %+v", i, got, msgs[i])
		}
	}
	var extra Message
	if err := fr.ReadMessage(&extra); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addr string, coordRaw [3]float64, capacity float64, ttl uint8, data []byte, gid string, seq uint64) bool {
		for i, c := range coordRaw {
			if math.IsNaN(c) {
				coordRaw[i] = 0
			}
		}
		if math.IsNaN(capacity) {
			capacity = 0
		}
		msg := Message{
			Type:    TPayload,
			From:    PeerInfo{Addr: addr, Coord: coordRaw[:], Capacity: capacity},
			GroupID: gid,
			TTL:     int(ttl),
			Seq:     seq,
			Data:    data,
		}
		frame, err := AppendMessage(nil, &msg)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			return false
		}
		if len(msg.Data) == 0 {
			msg.Data = nil
		}
		return msgEquivalent(&got, &msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsUnknownFieldBits(t *testing.T) {
	body := binary.AppendUvarint(nil, 1<<fieldCount) // one bit past the known fields
	frame := []byte{magic0, magic1, VersionBinary, byte(TProbe), 0, 0, 0, 0}
	frame[4] = byte(len(body))
	frame = append(frame, body...)
	if _, err := DecodeMessage(frame); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("got %v, want ErrBadMessage", err)
	}
}

func TestBinaryRejectsBadVersion(t *testing.T) {
	msg := Message{Type: TProbe}
	frame, err := AppendMessage(nil, &msg)
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 9 // future version byte
	if _, err := DecodeMessage(frame); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("got %v, want ErrBadVersion", err)
	}
}

func TestBinaryRejectsUnencodable(t *testing.T) {
	if _, err := AppendMessage(nil, &Message{Type: Type(300)}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("huge type: got %v, want ErrUnencodable", err)
	}
	if _, err := AppendMessage(nil, &Message{Type: Type(reservedType)}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("reserved type: got %v, want ErrUnencodable", err)
	}
	big := Message{Type: TProbe, From: PeerInfo{Coord: make([]float64, maxCoordDims+1)}}
	if _, err := AppendMessage(nil, &big); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("oversized coord: got %v, want ErrUnencodable", err)
	}
}

// TestInternReusesStrings pins the allocation story: the second decode of a
// frame naming the same address and group must return the interned strings,
// not fresh copies.
func TestInternReusesStrings(t *testing.T) {
	msg := Message{Type: TPayload, From: PeerInfo{Addr: "peer-a:1"}, GroupID: "room", Seq: 1, Data: []byte("x")}
	frame, err := AppendMessage(nil, &msg)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(append(append([]byte{}, frame...), frame...)))
	var first, second Message
	if err := fr.ReadMessage(&first); err != nil {
		t.Fatal(err)
	}
	if err := fr.ReadMessage(&second); err != nil {
		t.Fatal(err)
	}
	if unsafeStringData(first.From.Addr) != unsafeStringData(second.From.Addr) {
		t.Error("From.Addr not interned across frames")
	}
	if unsafeStringData(first.GroupID) != unsafeStringData(second.GroupID) {
		t.Error("GroupID not interned across frames")
	}
}

// TestBinaryZeroMessage pins the smallest frame: header + 1-byte empty
// bitmap.
func TestBinaryZeroMessage(t *testing.T) {
	frame, err := AppendMessage(nil, &Message{})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != binHeaderLen+1 {
		t.Fatalf("zero message frame is %d bytes, want %d", len(frame), binHeaderLen+1)
	}
	got, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Message{}) {
		t.Fatalf("zero message mutated: %+v", got)
	}
}
