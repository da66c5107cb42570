package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// encodeStream concatenates the frames of msgs, as a TCP link carries them.
func encodeStream(t *testing.T, msgs []Message) []byte {
	t.Helper()
	var stream []byte
	for i := range msgs {
		var err error
		if stream, err = AppendMessage(stream, &msgs[i]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	return stream
}

func TestFrameRoundTripStream(t *testing.T) {
	msgs := []Message{
		{Type: TProbe, From: PeerInfo{Addr: "a:1", Capacity: 3}, ReqID: 1},
		{Type: TPayload, GroupID: "g", Seq: 9, Data: []byte("hello"),
			From: PeerInfo{Addr: "b:2", Coord: []float64{1, 2}}},
		{Type: TBeacon, GroupID: "g", Epoch: 4,
			Deputies: []PeerInfo{{Addr: "c:3"}},
			Charter: Charter{GroupID: "g", Epoch: 4,
				HighWater: []DigestEntry{{Source: "s", High: 7}}}},
	}
	fr := NewFrameReader(bytes.NewReader(encodeStream(t, msgs)))
	for i := range msgs {
		var got Message
		if err := fr.ReadMessage(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, msgs[i]) {
			t.Fatalf("message %d mismatch:\n got %+v\nwant %+v", i, got, msgs[i])
		}
	}
	var extra Message
	if err := fr.ReadMessage(&extra); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestFrameReaderRejectsOversizedPrefix(t *testing.T) {
	hdr := []byte{magic0, magic1, VersionBinary, byte(TPayload), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], MaxFrameSize+1)
	fr := NewFrameReader(bytes.NewReader(append(hdr, 0)))
	var msg Message
	if err := fr.ReadMessage(&msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameReaderTruncatedFrame(t *testing.T) {
	valid, err := EncodeMessage(&Message{Type: TProbe, From: PeerInfo{Addr: "x:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(valid); cut++ {
		fr := NewFrameReader(bytes.NewReader(valid[:cut]))
		var msg Message
		if err := fr.ReadMessage(&msg); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestDecodeMessageRejectsTrailingBytes(t *testing.T) {
	valid, err := EncodeMessage(&Message{Type: TProbe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeMessage(valid); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
}

func TestWriterRejectsOversizedMessage(t *testing.T) {
	msg := Message{Type: TPayload, Data: make([]byte, MaxFrameSize+1)}
	if _, err := EncodeMessage(&msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("EncodeMessage: got %v, want ErrFrameTooLarge", err)
	}
}

// hostileHeaders are streams this decoder must refuse, each claiming a body
// just under the 4 MiB cap: three that do not start 'G' 'C' 0x02 — the
// opening bytes of a real frame of the retired gob dialect (big-endian
// length prefix, first byte 0x00, then the gob type descriptor of Message),
// a wrong magic, and a binary header whose version byte is 1 — and a valid
// header carrying the reserved type byte 0xFF. FuzzDecodeMessage seeds from
// the same strings.
var hostileHeaders = []struct {
	name string
	data []byte
	want error
}{
	{"former gob frame", []byte{0x00, 0x3f, 0xff, 0xff, 0xfe, 0x01, 0x69, 0x7f, 0x03, 0x01, 0x01, 0x07, 'M', 'e', 's', 's'}, ErrBadVersion},
	{"wrong magic", []byte{magic0, 'X', VersionBinary, byte(TPayload), 0xff, 0xff, 0x3f, 0x00, 0x01, 0x02}, ErrBadVersion},
	{"version byte 1", []byte{magic0, magic1, 1, byte(TPayload), 0xff, 0xff, 0x3f, 0x00, 0x01, 0x02}, ErrBadVersion},
	{"reserved type 0xFF", []byte{magic0, magic1, VersionBinary, reservedType, 0xff, 0xff, 0x3f, 0x00, 0x01, 0x02}, ErrBadMessage},
}

// TestHostileHeaderRejectedBeforeBody: a frame that is not this protocol's
// fails on its header alone — nothing past the 8 header bytes is read and
// no buffer for the claimed body is allocated.
func TestHostileHeaderRejectedBeforeBody(t *testing.T) {
	for _, tc := range hostileHeaders {
		src := bytes.NewReader(tc.data)
		fr := NewFrameReader(src)
		var msg Message
		if err := fr.ReadMessage(&msg); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadMessage: got %v, want %v", tc.name, err, tc.want)
		}
		if read := len(tc.data) - src.Len(); read > binHeaderLen {
			t.Errorf("%s: read %d bytes, want at most the %d-byte header", tc.name, read, binHeaderLen)
		}
		if fr.frame != nil {
			t.Errorf("%s: allocated a %d-byte body buffer", tc.name, cap(fr.frame))
		}
		if _, err := DecodeMessage(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeMessage: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
