// Binary wire codec (wire version 2): the hand-rolled hot-path encoding for
// payload relay, beacons, NACKs, and digests. Every frame starts with an
// 8-byte header —
//
//	offset 0: magic 'G' (0x47)
//	offset 1: magic 'C' (0x43)
//	offset 2: wire version (0x02)
//	offset 3: message type (0x00-0xFE; 0xFF is reserved and rejected)
//	offset 4: body length, uint32 little-endian (≤ MaxFrameSize)
//
// — followed by the body: a presence bitmap (uvarint; one bit per Message
// field, zero-valued fields omitted entirely) and the present fields in bit
// order, each with an explicit little-endian layout. Integers that vary in
// magnitude (sequence numbers, digest high-water marks, epochs, lengths) are
// varint-packed; floats and timestamps are fixed 8-byte little-endian.
// docs/WIRE.md is the authoritative byte-level specification; the golden
// vector tests in golden_test.go pin the layout of every message type.
//
// The codec is allocation-frugal by construction: encoding appends into a
// caller-supplied byte slice and decoding reads fields straight out of the
// frame, interning repeated strings (addresses, group IDs) and each peer's
// last coordinate vector per reader, so a steady-state relay hop allocates
// only the payload slice. Frames are stateless — any frame decodes in
// isolation — which is what lets the TCP transport encode a fan-out message
// once and write the same bytes to every link (MultiSender), and send a
// link's queued frames back to back in one vectored write.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// VersionBinary is the header version byte of the only wire format. Version
// 1 was a length-prefixed gob dialect that is no longer spoken: its frames —
// like anything else that does not start 'G' 'C' 0x02 — fail with
// ErrBadVersion.
const VersionBinary = 2

// Binary frame constants.
const (
	magic0 = 'G'
	magic1 = 'C'
	// binHeaderLen is the fixed binary frame header size.
	binHeaderLen = 8
	// reservedType is the one header type byte no Message may use: the
	// encoder refuses it and the reader rejects it before reading the body.
	reservedType = 0xFF
	// maxCoordDims bounds a PeerInfo coordinate vector (stored as one byte).
	maxCoordDims = 255
)

// Binary codec errors.
var (
	// ErrBadVersion reports a frame that does not start with the 'G' 'C'
	// magic and the version byte this decoder speaks. The stream is poisoned;
	// drop the connection.
	ErrBadVersion = errors.New("wire: unsupported wire version")
	// ErrBadMessage reports a binary body that does not parse: truncated
	// fields, unknown presence bits, counts exceeding the frame, or trailing
	// bytes inside the body.
	ErrBadMessage = errors.New("wire: malformed binary message")
	// ErrUnencodable reports a Message the binary layout cannot carry (a
	// type outside 0-254 or a coordinate vector longer than 255 dims).
	ErrUnencodable = errors.New("wire: message not encodable in binary layout")
)

// Presence bitmap bits, in field order. A set bit means the field follows in
// the body; a clear bit decodes as the zero value. Bits at or above
// fieldCount are a decode error (layout changes bump the version byte).
const (
	bitFrom = iota
	bitReqID
	bitNeighbors
	bitGroupID
	bitRendezvous
	bitTTL
	bitOrigin
	bitSubscriber
	bitMsgID
	bitData
	bitSeq
	bitRelay
	bitMode
	bitNackSource
	bitNackSeqs
	bitDigest
	bitEpoch
	bitDeputies
	bitCharter
	bitSentAt
	bitTraceID
	bitHops
	bitOriginAt
	bitRelayedAt
	bitPath
	bitBackups
	bitTarget
	bitHealth
	fieldCount
)

// --- primitive append helpers -------------------------------------------

// appendSvarint zigzag-encodes a signed integer (TTL, hop counts).
func appendSvarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendByteSlice(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendTime encodes a non-zero time as its Unix nanosecond count, fixed
// 8-byte little-endian. Times outside the Unix-nano range (years ≲1678 or
// ≳2262) are not representable; the protocol only carries recent wall-clock
// stamps.
func appendTime(dst []byte, t time.Time) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(t.UnixNano()))
}

func appendPeer(dst []byte, p *PeerInfo) ([]byte, error) {
	if len(p.Coord) > maxCoordDims {
		return dst, fmt.Errorf("%w: %d coordinate dims", ErrUnencodable, len(p.Coord))
	}
	dst = appendString(dst, p.Addr)
	dst = append(dst, byte(len(p.Coord)))
	for _, c := range p.Coord {
		dst = appendF64(dst, c)
	}
	dst = appendF64(dst, p.Capacity)
	dst = appendF64(dst, p.CoordErr)
	return dst, nil
}

func appendPeers(dst []byte, ps []PeerInfo) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	var err error
	for i := range ps {
		if dst, err = appendPeer(dst, &ps[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendDigestEntries varint-packs a high-water map: count, then per entry
// the source address and its high-water mark.
func appendDigestEntries(dst []byte, es []DigestEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for i := range es {
		dst = appendString(dst, es[i].Source)
		dst = binary.AppendUvarint(dst, es[i].High)
	}
	return dst
}

// appendHealth encodes a health-digest list: count, then per digest the
// reporter address, epoch, the three float summaries, the three varint
// counters, and a flags byte (bit 0 = degraded).
func appendHealth(dst []byte, hs []HealthDigest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(hs)))
	for i := range hs {
		h := &hs[i]
		dst = appendString(dst, h.Addr)
		dst = binary.AppendUvarint(dst, h.Epoch)
		dst = appendF64(dst, h.Utility)
		dst = appendF64(dst, h.Pressure)
		dst = appendF64(dst, h.P99Ms)
		dst = binary.AppendUvarint(dst, h.Inbox)
		dst = binary.AppendUvarint(dst, h.Delivered)
		dst = binary.AppendUvarint(dst, h.Shed)
		var flags byte
		if h.Degraded {
			flags |= 1
		}
		dst = append(dst, flags)
	}
	return dst
}

func appendCharter(dst []byte, c *Charter) ([]byte, error) {
	dst = appendString(dst, c.GroupID)
	dst = append(dst, byte(c.Mode))
	dst = binary.AppendUvarint(dst, c.Epoch)
	var err error
	if dst, err = appendPeers(dst, c.Deputies); err != nil {
		return dst, err
	}
	return appendDigestEntries(dst, c.HighWater), nil
}

// --- zero checks (presence bitmap) --------------------------------------

func peerIsZero(p *PeerInfo) bool {
	return p.Addr == "" && len(p.Coord) == 0 && p.Capacity == 0 && p.CoordErr == 0
}

func charterIsZero(c *Charter) bool {
	return c.GroupID == "" && c.Mode == 0 && c.Epoch == 0 &&
		len(c.Deputies) == 0 && len(c.HighWater) == 0
}

// presence computes the bitmap of non-zero fields.
func presence(msg *Message) uint64 {
	var bits uint64
	set := func(bit int, present bool) {
		if present {
			bits |= 1 << bit
		}
	}
	set(bitFrom, !peerIsZero(&msg.From))
	set(bitReqID, msg.ReqID != 0)
	set(bitNeighbors, len(msg.Neighbors) > 0)
	set(bitGroupID, msg.GroupID != "")
	set(bitRendezvous, !peerIsZero(&msg.Rendezvous))
	set(bitTTL, msg.TTL != 0)
	set(bitOrigin, !peerIsZero(&msg.Origin))
	set(bitSubscriber, !peerIsZero(&msg.Subscriber))
	set(bitMsgID, msg.MsgID != 0)
	set(bitData, len(msg.Data) > 0)
	set(bitSeq, msg.Seq != 0)
	set(bitRelay, !peerIsZero(&msg.Relay))
	set(bitMode, msg.Mode != 0)
	set(bitNackSource, msg.NackSource != "")
	set(bitNackSeqs, len(msg.NackSeqs) > 0)
	set(bitDigest, len(msg.Digest) > 0)
	set(bitEpoch, msg.Epoch != 0)
	set(bitDeputies, len(msg.Deputies) > 0)
	set(bitCharter, !charterIsZero(&msg.Charter))
	set(bitSentAt, !msg.SentAt.IsZero())
	set(bitTraceID, msg.TraceID != 0)
	set(bitHops, msg.Hops != 0)
	set(bitOriginAt, !msg.OriginAt.IsZero())
	set(bitRelayedAt, !msg.RelayedAt.IsZero())
	set(bitPath, len(msg.Path) > 0)
	set(bitBackups, len(msg.Backups) > 0)
	set(bitTarget, len(msg.Target) > 0)
	set(bitHealth, len(msg.Health) > 0)
	return bits
}

// appendBody encodes the presence bitmap and the present fields.
func appendBody(dst []byte, msg *Message) ([]byte, error) {
	bits := presence(msg)
	dst = binary.AppendUvarint(dst, bits)
	var err error
	if bits&(1<<bitFrom) != 0 {
		if dst, err = appendPeer(dst, &msg.From); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitReqID) != 0 {
		dst = binary.AppendUvarint(dst, msg.ReqID)
	}
	if bits&(1<<bitNeighbors) != 0 {
		if dst, err = appendPeers(dst, msg.Neighbors); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitGroupID) != 0 {
		dst = appendString(dst, msg.GroupID)
	}
	if bits&(1<<bitRendezvous) != 0 {
		if dst, err = appendPeer(dst, &msg.Rendezvous); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitTTL) != 0 {
		dst = appendSvarint(dst, int64(msg.TTL))
	}
	if bits&(1<<bitOrigin) != 0 {
		if dst, err = appendPeer(dst, &msg.Origin); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitSubscriber) != 0 {
		if dst, err = appendPeer(dst, &msg.Subscriber); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitMsgID) != 0 {
		dst = binary.AppendUvarint(dst, msg.MsgID)
	}
	if bits&(1<<bitData) != 0 {
		dst = appendByteSlice(dst, msg.Data)
	}
	if bits&(1<<bitSeq) != 0 {
		dst = binary.AppendUvarint(dst, msg.Seq)
	}
	if bits&(1<<bitRelay) != 0 {
		if dst, err = appendPeer(dst, &msg.Relay); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitMode) != 0 {
		dst = append(dst, byte(msg.Mode))
	}
	if bits&(1<<bitNackSource) != 0 {
		dst = appendString(dst, msg.NackSource)
	}
	if bits&(1<<bitNackSeqs) != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(msg.NackSeqs)))
		for _, s := range msg.NackSeqs {
			dst = binary.AppendUvarint(dst, s)
		}
	}
	if bits&(1<<bitDigest) != 0 {
		dst = appendDigestEntries(dst, msg.Digest)
	}
	if bits&(1<<bitEpoch) != 0 {
		dst = binary.AppendUvarint(dst, msg.Epoch)
	}
	if bits&(1<<bitDeputies) != 0 {
		if dst, err = appendPeers(dst, msg.Deputies); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitCharter) != 0 {
		if dst, err = appendCharter(dst, &msg.Charter); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitSentAt) != 0 {
		dst = appendTime(dst, msg.SentAt)
	}
	if bits&(1<<bitTraceID) != 0 {
		dst = binary.AppendUvarint(dst, msg.TraceID)
	}
	if bits&(1<<bitHops) != 0 {
		dst = appendSvarint(dst, int64(msg.Hops))
	}
	if bits&(1<<bitOriginAt) != 0 {
		dst = appendTime(dst, msg.OriginAt)
	}
	if bits&(1<<bitRelayedAt) != 0 {
		dst = appendTime(dst, msg.RelayedAt)
	}
	if bits&(1<<bitPath) != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(msg.Path)))
		for _, p := range msg.Path {
			dst = appendString(dst, p)
		}
	}
	if bits&(1<<bitBackups) != 0 {
		if dst, err = appendPeers(dst, msg.Backups); err != nil {
			return dst, err
		}
	}
	if bits&(1<<bitTarget) != 0 {
		dst = appendByteSlice(dst, msg.Target)
	}
	if bits&(1<<bitHealth) != 0 {
		dst = appendHealth(dst, msg.Health)
	}
	return dst, nil
}

// AppendMessage appends one standalone binary frame (header + body) for msg
// to dst and returns the extended slice. dst may be nil or a pooled buffer;
// the message is not retained.
func AppendMessage(dst []byte, msg *Message) ([]byte, error) {
	if msg.Type < 0 || msg.Type >= reservedType {
		return dst, fmt.Errorf("%w: type %d", ErrUnencodable, int(msg.Type))
	}
	start := len(dst)
	dst = append(dst, magic0, magic1, VersionBinary, byte(msg.Type), 0, 0, 0, 0)
	dst, err := appendBody(dst, msg)
	if err != nil {
		return dst[:start], err
	}
	body := len(dst) - start - binHeaderLen
	if body > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start+4:start+8], uint32(body))
	return dst, nil
}

// --- decoding ------------------------------------------------------------

// internTable deduplicates what a connection repeats endlessly so
// steady-state decoding stops allocating it: short strings (peer addresses,
// group IDs), and per peer address the last coordinate vector decoded for
// it. A coordinate is replaced when its bits change, so live Vivaldi drift
// keeps one entry per peer, not one per position. Both maps are bounded in
// entries and in entry size; overflow simply falls back to fresh
// allocations.
type internTable struct {
	m      map[string]string
	coords map[string][]float64
}

const (
	internMaxLen     = 64   // only short strings and coordinates (bytes) are worth interning
	internMaxEntries = 4096 // per-reader cap on distinct strings and coordinates
)

func (it *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	if it.m == nil {
		it.m = make(map[string]string)
	}
	if s, ok := it.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(it.m) < internMaxEntries {
		it.m[s] = s
	}
	return s
}

// coord returns the coordinate encoded in b (8-byte little-endian floats)
// for the peer at addr: the slice last decoded for addr when the bits are
// unchanged, otherwise a fresh slice that replaces it. Callers share the
// returned slice and must not write to it.
func (it *internTable) coord(addr string, b []byte) []float64 {
	cached, ok := it.coords[addr]
	if ok && sameCoord(cached, b) {
		return cached
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	if len(addr) > internMaxLen || len(b) > internMaxLen {
		return v
	}
	if ok || len(it.coords) < internMaxEntries {
		if it.coords == nil {
			it.coords = make(map[string][]float64)
		}
		it.coords[addr] = v
	}
	return v
}

// sameCoord reports whether b encodes exactly the bits of v.
func sameCoord(v []float64, b []byte) bool {
	if 8*len(v) != len(b) {
		return false
	}
	for i, f := range v {
		if math.Float64bits(f) != binary.LittleEndian.Uint64(b[8*i:]) {
			return false
		}
	}
	return true
}

// bcursor reads primitive values out of one frame body, tracking a sticky
// error so call sites stay linear. own marks a body the decoded message
// owns: its byte slices alias the body instead of copying out of it.
type bcursor struct {
	data   []byte
	off    int
	intern *internTable
	own    bool
	err    error
}

func (c *bcursor) fail() {
	if c.err == nil {
		c.err = ErrBadMessage
	}
}

func (c *bcursor) u8() byte {
	if c.err != nil || c.off >= len(c.data) {
		c.fail()
		return 0
	}
	b := c.data[c.off]
	c.off++
	return b
}

func (c *bcursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *bcursor) svarint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// take returns the next n bytes of the frame without copying.
func (c *bcursor) take(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.data) || c.off+n < 0 {
		c.fail()
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *bcursor) str() string {
	n := c.uvarint()
	if c.err != nil || n > uint64(len(c.data)-c.off) {
		c.fail()
		return ""
	}
	return c.intern.get(c.take(int(n)))
}

// byteSlice returns the length-prefixed bytes. Payload data outlives the
// frame (it flows into receive windows and relay caches), so out of a
// reused frame buffer they are copied; out of an owned body they alias it,
// capped so an append cannot write into the rest of the body.
func (c *bcursor) byteSlice() []byte {
	n := c.uvarint()
	if c.err != nil || n > uint64(len(c.data)-c.off) {
		c.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := c.take(int(n))
	if c.own {
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (c *bcursor) f64() float64 {
	b := c.take(8)
	if c.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (c *bcursor) time() time.Time {
	b := c.take(8)
	if c.err != nil {
		return time.Time{}
	}
	return time.Unix(0, int64(binary.LittleEndian.Uint64(b)))
}

func (c *bcursor) peer(p *PeerInfo) {
	p.Addr = c.str()
	n := int(c.u8())
	if c.err != nil {
		return
	}
	if n > 0 {
		b := c.take(8 * n)
		if c.err != nil {
			return
		}
		p.Coord = c.intern.coord(p.Addr, b)
	} else {
		p.Coord = nil
	}
	p.Capacity = c.f64()
	p.CoordErr = c.f64()
}

func (c *bcursor) peers() []PeerInfo {
	n := c.uvarint()
	if c.err != nil || n == 0 {
		return nil
	}
	// Each encoded peer is ≥ 18 bytes; a count claiming more than the
	// remaining frame is hostile.
	if n > uint64(len(c.data)-c.off)/18+1 {
		c.fail()
		return nil
	}
	ps := make([]PeerInfo, n)
	for i := range ps {
		c.peer(&ps[i])
		if c.err != nil {
			return nil
		}
	}
	return ps
}

func (c *bcursor) digestEntries() []DigestEntry {
	n := c.uvarint()
	if c.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(c.data)-c.off)/2+1 {
		c.fail()
		return nil
	}
	es := make([]DigestEntry, n)
	for i := range es {
		es[i].Source = c.str()
		es[i].High = c.uvarint()
		if c.err != nil {
			return nil
		}
	}
	return es
}

func (c *bcursor) health() []HealthDigest {
	n := c.uvarint()
	if c.err != nil || n == 0 {
		return nil
	}
	// Each encoded digest is ≥ 29 bytes (3 fixed floats + flags + minimal
	// varints); a count claiming more than the remaining frame is hostile.
	if n > uint64(len(c.data)-c.off)/29+1 {
		c.fail()
		return nil
	}
	hs := make([]HealthDigest, n)
	for i := range hs {
		h := &hs[i]
		h.Addr = c.str()
		h.Epoch = c.uvarint()
		h.Utility = c.f64()
		h.Pressure = c.f64()
		h.P99Ms = c.f64()
		h.Inbox = c.uvarint()
		h.Delivered = c.uvarint()
		h.Shed = c.uvarint()
		h.Degraded = c.u8()&1 != 0
		if c.err != nil {
			return nil
		}
	}
	return hs
}

func (c *bcursor) charter(ch *Charter) {
	ch.GroupID = c.str()
	ch.Mode = DeliveryMode(c.u8())
	ch.Epoch = c.uvarint()
	ch.Deputies = c.peers()
	ch.HighWater = c.digestEntries()
}

// decodeBody parses one binary body into msg (which is fully overwritten).
// The body must be consumed exactly; trailing bytes are an error.
func decodeBody(body []byte, typ byte, msg *Message, intern *internTable, own bool) error {
	*msg = Message{Type: Type(typ)}
	c := bcursor{data: body, intern: intern, own: own}
	bits := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if bits>>fieldCount != 0 {
		return fmt.Errorf("%w: unknown field bits %#x", ErrBadMessage, bits)
	}
	if bits&(1<<bitFrom) != 0 {
		c.peer(&msg.From)
	}
	if bits&(1<<bitReqID) != 0 {
		msg.ReqID = c.uvarint()
	}
	if bits&(1<<bitNeighbors) != 0 {
		msg.Neighbors = c.peers()
	}
	if bits&(1<<bitGroupID) != 0 {
		msg.GroupID = c.str()
	}
	if bits&(1<<bitRendezvous) != 0 {
		c.peer(&msg.Rendezvous)
	}
	if bits&(1<<bitTTL) != 0 {
		msg.TTL = int(c.svarint())
	}
	if bits&(1<<bitOrigin) != 0 {
		c.peer(&msg.Origin)
	}
	if bits&(1<<bitSubscriber) != 0 {
		c.peer(&msg.Subscriber)
	}
	if bits&(1<<bitMsgID) != 0 {
		msg.MsgID = c.uvarint()
	}
	if bits&(1<<bitData) != 0 {
		msg.Data = c.byteSlice()
	}
	if bits&(1<<bitSeq) != 0 {
		msg.Seq = c.uvarint()
	}
	if bits&(1<<bitRelay) != 0 {
		c.peer(&msg.Relay)
	}
	if bits&(1<<bitMode) != 0 {
		msg.Mode = DeliveryMode(c.u8())
	}
	if bits&(1<<bitNackSource) != 0 {
		msg.NackSource = c.str()
	}
	if bits&(1<<bitNackSeqs) != 0 {
		n := c.uvarint()
		if c.err == nil && n > 0 {
			if n > uint64(len(c.data)-c.off)+1 {
				c.fail()
			} else {
				msg.NackSeqs = make([]uint64, n)
				for i := range msg.NackSeqs {
					msg.NackSeqs[i] = c.uvarint()
				}
			}
		}
	}
	if bits&(1<<bitDigest) != 0 {
		msg.Digest = c.digestEntries()
	}
	if bits&(1<<bitEpoch) != 0 {
		msg.Epoch = c.uvarint()
	}
	if bits&(1<<bitDeputies) != 0 {
		msg.Deputies = c.peers()
	}
	if bits&(1<<bitCharter) != 0 {
		c.charter(&msg.Charter)
	}
	if bits&(1<<bitSentAt) != 0 {
		msg.SentAt = c.time()
	}
	if bits&(1<<bitTraceID) != 0 {
		msg.TraceID = c.uvarint()
	}
	if bits&(1<<bitHops) != 0 {
		msg.Hops = int(c.svarint())
	}
	if bits&(1<<bitOriginAt) != 0 {
		msg.OriginAt = c.time()
	}
	if bits&(1<<bitRelayedAt) != 0 {
		msg.RelayedAt = c.time()
	}
	if bits&(1<<bitPath) != 0 {
		n := c.uvarint()
		if c.err == nil && n > 0 {
			if n > uint64(len(c.data)-c.off)+1 {
				c.fail()
			} else {
				msg.Path = make([]string, n)
				for i := range msg.Path {
					msg.Path[i] = c.str()
				}
			}
		}
	}
	if bits&(1<<bitBackups) != 0 {
		msg.Backups = c.peers()
	}
	if bits&(1<<bitTarget) != 0 {
		msg.Target = c.byteSlice()
	}
	if bits&(1<<bitHealth) != 0 {
		msg.Health = c.health()
	}
	if c.err != nil {
		*msg = Message{}
		return c.err
	}
	if c.off != len(c.data) {
		*msg = Message{}
		return fmt.Errorf("%w: %d trailing bytes in body", ErrBadMessage, len(c.data)-c.off)
	}
	return nil
}
