// Frame codec for wire messages. There is one wire format: the hand-rolled
// zero-allocation binary codec of binary.go — 'G' 'C' magic, version and
// type bytes, and a little-endian length, followed by an explicit per-field
// binary body. Payload relay, beacons, NACKs, and digests all ride it, one
// message per frame.
//
// The header is validated BEFORE any allocation — magic, version byte, the
// type byte, then the frame length against MaxFrameSize — and the body is
// fully read before the decoder sees it, so a truncated, malformed, or
// hostile frame (including a frame of the retired gob dialect, whose first
// byte was 0x00) errors out cheaply and deterministically (FuzzDecodeMessage
// holds the codec to that).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds one encoded frame body (4 MiB). Payloads are
// application-bounded well below this; anything larger is a protocol error,
// not a bigger buffer.
const MaxFrameSize = 4 << 20

// Framing errors.
var (
	// ErrFrameTooLarge reports a length prefix above MaxFrameSize. The
	// stream is poisoned (the peer is not speaking this protocol); callers
	// should drop the connection.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrFrameEmpty reports a zero-length frame, which no Message encodes to.
	ErrFrameEmpty = errors.New("wire: empty frame")
)

// FrameReader decodes frames from a byte stream. Frames decode in place with
// per-reader string interning. Not safe for concurrent use.
type FrameReader struct {
	r      io.Reader
	frame  []byte // reusable frame body buffer
	hdr    [binHeaderLen]byte
	intern internTable
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadMessage reads and decodes the next message. It returns io.EOF at a
// clean stream end, io.ErrUnexpectedEOF on a truncated frame, ErrBadVersion
// on a header that does not start 'G' 'C' 0x02, ErrBadMessage on the
// reserved type byte 0xFF, ErrFrameTooLarge on a hostile length, and a
// decode error when the frame bytes are not a valid Message.
// After any non-EOF error the stream position is undefined; drop the
// connection.
func (fr *FrameReader) ReadMessage(msg *Message) error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	if fr.hdr[0] != magic0 || fr.hdr[1] != magic1 || fr.hdr[2] != VersionBinary {
		return fmt.Errorf("%w: frame starts % x", ErrBadVersion, fr.hdr[:3])
	}
	typ := fr.hdr[3]
	if typ == reservedType {
		return fmt.Errorf("%w: reserved type %#x", ErrBadMessage, typ)
	}
	size := binary.LittleEndian.Uint32(fr.hdr[4:])
	if size == 0 {
		return ErrFrameEmpty
	}
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	// A payload's body goes into a fresh buffer that the message owns, so its
	// Data aliases the body instead of copying out of it: the one allocation
	// per payload frame either way, minus the copy.
	own := Type(typ) == TPayload
	body, err := fr.readBody(int(size), own)
	if err != nil {
		return err
	}
	return decodeBody(body, typ, msg, &fr.intern, own)
}

// readBody reads a size-validated frame body: into a fresh buffer when
// fresh, otherwise into the previous frame's backing array when it fits.
func (fr *FrameReader) readBody(size int, fresh bool) ([]byte, error) {
	var body []byte
	if fresh {
		body = make([]byte, size)
	} else {
		if cap(fr.frame) < size {
			fr.frame = make([]byte, size)
		}
		body = fr.frame[:size]
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	return body, nil
}

// EncodeMessage renders one message as a standalone frame — the unit
// FuzzDecodeMessage round-trips and tests build corpora from.
func EncodeMessage(msg *Message) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// DecodeMessage parses one standalone frame. Any malformed, truncated, or
// oversized input returns an error — never a panic, and never an
// allocation beyond MaxFrameSize (the fuzz target's contract). Trailing
// bytes after the frame are a protocol error.
func DecodeMessage(data []byte) (Message, error) {
	r := bytes.NewReader(data)
	var msg Message
	if err := NewFrameReader(r).ReadMessage(&msg); err != nil {
		return Message{}, err
	}
	if r.Len() > 0 {
		return Message{}, errors.New("wire: trailing bytes after frame")
	}
	return msg, nil
}
