// Frame codec for wire messages. There is one wire format: the hand-rolled
// zero-allocation binary codec of binary.go — 'G' 'C' magic, version and
// type bytes, and a little-endian length, followed by an explicit per-field
// binary body. Payload relay, beacons, NACKs, and digests all ride it, and
// coalesced container frames let one TCP write carry several small control
// messages.
//
// The header is validated BEFORE any allocation — magic, version byte, then
// the frame length against MaxFrameSize — and the body is fully read before
// the decoder sees it, so a truncated, malformed, or hostile frame (including
// a frame of the retired gob dialect, whose first byte was 0x00) errors out
// cheaply and deterministically (FuzzDecodeMessage holds the codec to that).
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
// per-reader string interning. Coalesced container frames are unpacked and
// their sub-messages returned one ReadMessage at a time. Not safe for
// concurrent use.
type FrameReader struct {
	r      io.Reader
	frame  []byte // reusable frame body buffer
	hdr    [binHeaderLen]byte
	intern internTable

	// pending holds sub-messages already unpacked from a coalesced frame.
	pending []Message
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadMessage reads and decodes the next message, unpacking coalesced
// container frames transparently. It returns io.EOF at a clean stream end,
// io.ErrUnexpectedEOF on a truncated frame, ErrBadVersion on a header that
// does not start 'G' 'C' 0x02, ErrFrameTooLarge on a hostile length, and a
// decode error when the frame bytes are not a valid Message.
// After any non-EOF error the stream position is undefined; drop the
// connection.
func (fr *FrameReader) ReadMessage(msg *Message) error {
	if len(fr.pending) > 0 {
		*msg = fr.pending[0]
		fr.pending = fr.pending[1:]
		return nil
	}
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
	size := binary.LittleEndian.Uint32(fr.hdr[4:])
	if size == 0 {
		return ErrFrameEmpty
	}
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	body, err := fr.readBody(int(size))
	if err != nil {
		return err
	}
	if typ == coalescedType {
		pending, err := decodeSubMessages(body, fr.pending[:0], &fr.intern)
		if err != nil {
			return err
		}
		fr.pending = pending
		*msg = fr.pending[0]
		fr.pending = fr.pending[1:]
		return nil
	}
	return decodeBody(body, typ, msg, &fr.intern)
}

// readBody reads a size-validated frame body, reusing the previous frame's
// backing array when it fits.
func (fr *FrameReader) readBody(size int) ([]byte, error) {
	if cap(fr.frame) < size {
		fr.frame = make([]byte, size)
	}
	body := fr.frame[:size]
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

// DecodeMessage parses one standalone single-message frame. Any malformed,
// truncated, or oversized input returns an error — never a panic, and never
// an allocation beyond MaxFrameSize. Trailing bytes after the frame, or a
// multi-message coalesced frame, are a protocol error.
func DecodeMessage(data []byte) (Message, error) {
	msgs, err := DecodeFrames(data)
	if err != nil {
		return Message{}, err
	}
	if len(msgs) != 1 {
		return Message{}, fmt.Errorf("wire: %d messages in frame, want 1", len(msgs))
	}
	return msgs[0], nil
}

// DecodeFrames parses exactly one standalone frame and returns the messages
// it carries: one for a plain frame, one or more for a coalesced container.
// Trailing bytes after the frame are a protocol error. Like DecodeMessage it
// never panics and never allocates beyond the frame cap (the fuzz target's
// contract).
func DecodeFrames(data []byte) ([]Message, error) {
	fr := NewFrameReader(bytes.NewReader(data))
	var msg Message
	if err := fr.ReadMessage(&msg); err != nil {
		return nil, err
	}
	msgs := append([]Message{msg}, fr.pending...)
	fr.pending = nil
	if rest, err := io.ReadAll(io.LimitReader(fr.r, 1)); err == nil && len(rest) > 0 {
		return nil, errors.New("wire: trailing bytes after frame")
	}
	return msgs, nil
}
