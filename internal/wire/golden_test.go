package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current codec")

// goldenMessages is one representative message per wire type, with every
// field the type uses populated. The encodings of these messages are pinned
// byte-for-byte in testdata/golden.txt: any diff there is a wire format
// break and must come with a version bump (see docs/WIRE.md, Versioning).
func goldenMessages() []struct {
	name string
	msg  Message
} {
	p1 := PeerInfo{Addr: "10.0.0.1:7000", Coord: []float64{1, 2}, Capacity: 50}
	p2 := PeerInfo{Addr: "10.0.0.2:7000", Coord: []float64{-3, 0.5}, Capacity: 10, CoordErr: 0.25}
	t0 := time.Unix(1700000000, 123456789)
	return []struct {
		name string
		msg  Message
	}{
		{"probe", Message{Type: TProbe, From: p1, ReqID: 7}},
		{"probe-resp", Message{Type: TProbeResp, From: p2, ReqID: 7,
			Neighbors: []PeerInfo{p1, p2}}},
		{"connect", Message{Type: TConnect, From: p1}},
		{"back-connect", Message{Type: TBackConnect, From: p2, ReqID: 9}},
		{"back-accept", Message{Type: TBackAccept, From: p1, ReqID: 9}},
		{"advertise", Message{Type: TAdvertise, From: p1, GroupID: "chat",
			Rendezvous: p1, TTL: 7, MsgID: 99, Mode: ReliableOrdered, Epoch: 3,
			TraceID: 99, OriginAt: t0}},
		{"join", Message{Type: TJoin, From: p2, GroupID: "chat", ReqID: 12,
			Subscriber: p2, Rendezvous: p1, Path: []string{"10.0.0.1:7000"},
			TraceID: 4, Hops: 1}},
		{"join-ack", Message{Type: TJoinAck, From: p1, GroupID: "chat", ReqID: 12,
			Rendezvous: p1, Mode: Reliable, Epoch: 3, Path: []string{"10.0.0.1:7000"},
			Backups: []PeerInfo{p2}}},
		{"search", Message{Type: TSearch, From: p2, GroupID: "chat", TTL: 2,
			Origin: p2, ReqID: 31, MsgID: 44}},
		{"search-hit", Message{Type: TSearchHit, From: p1, GroupID: "chat",
			ReqID: 31, Rendezvous: p1, Mode: Reliable,
			Path: []string{"10.0.0.1:7000"}, Hops: 2}},
		{"payload", Message{Type: TPayload, From: p1, GroupID: "chat", Seq: 42,
			Relay: p2, Data: []byte("hello group"), TraceID: 5, Hops: 3,
			OriginAt: t0, RelayedAt: t0.Add(time.Millisecond)}},
		{"beacon", Message{Type: TBeacon, From: p1, GroupID: "chat", Epoch: 3,
			Mode: ReliableOrdered, Path: []string{"10.0.0.1:7000"},
			Backups: []PeerInfo{p2}, Deputies: []PeerInfo{p2},
			Charter: Charter{GroupID: "chat", Mode: ReliableOrdered, Epoch: 3,
				Deputies:  []PeerInfo{p2},
				HighWater: []DigestEntry{{Source: "10.0.0.2:7000", High: 41}}}}},
		{"leave", Message{Type: TLeave, From: p2, GroupID: "chat"}},
		{"heartbeat", Message{Type: THeartbeat, From: p1, SentAt: t0}},
		{"heartbeat-ack", Message{Type: THeartbeatAck, From: p2, SentAt: t0}},
		{"nack", Message{Type: TNack, From: p2, GroupID: "chat",
			NackSource: "10.0.0.1:7000", NackSeqs: []uint64{40, 41, 43},
			Origin: p2, TTL: 4}},
		{"digest", Message{Type: TDigest, From: p1, GroupID: "chat",
			Mode: Reliable, Digest: []DigestEntry{
				{Source: "10.0.0.1:7000", High: 41},
				{Source: "10.0.0.2:7000", High: 7}}}},
		{"handoff", Message{Type: THandoff, From: p1, GroupID: "chat", Epoch: 5,
			Charter: Charter{GroupID: "chat", Epoch: 5,
				Deputies: []PeerInfo{p2}}}},
		{"dht-find-node", Message{Type: TDhtFindNode, From: p1, ReqID: 21,
			Target: []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
				0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14}}},
		{"dht-find-node-resp", Message{Type: TDhtFindNodeResp, From: p2, ReqID: 21,
			Neighbors: []PeerInfo{p1, p2}}},
		{"dht-find-value", Message{Type: TDhtFindValue, From: p2, ReqID: 22,
			GroupID: "chat"}},
		{"dht-find-value-resp", Message{Type: TDhtFindValueResp, From: p1, ReqID: 22,
			GroupID: "chat", Rendezvous: p1, Mode: Reliable, Epoch: 3,
			Charter: Charter{GroupID: "chat", Mode: Reliable, Epoch: 3,
				Deputies: []PeerInfo{p2}}}},
		{"dht-store", Message{Type: TDhtStore, From: p1, ReqID: 23, GroupID: "chat",
			Rendezvous: p1, Mode: Reliable, Epoch: 3,
			Charter: Charter{GroupID: "chat", Mode: Reliable, Epoch: 3,
				Deputies: []PeerInfo{p2}}}},
		{"dht-store-ack", Message{Type: TDhtStoreAck, From: p2, ReqID: 23,
			GroupID: "chat", Epoch: 3}},
		{"telemetry", Message{Type: TTelemetry, From: p1,
			Health: []HealthDigest{
				{Addr: "10.0.0.1:7000", Epoch: 12, Utility: 0.5, Pressure: 0.25,
					P99Ms: 4.5, Inbox: 3, Delivered: 4100, Shed: 2, Degraded: true},
				{Addr: "10.0.0.2:7000", Epoch: 11, Utility: 0.75,
					Delivered: 900}}}},
		{"heartbeat-health", Message{Type: THeartbeat, From: p1, SentAt: t0,
			Health: []HealthDigest{
				{Addr: "10.0.0.1:7000", Epoch: 12, Utility: 0.5, Pressure: 0.25,
					P99Ms: 4.5, Inbox: 3, Delivered: 4100, Shed: 2}}}},
		{"zero", Message{}},
	}
}

// goldenWireDocFrame builds the exact beacon of the worked example in
// docs/WIRE.md and returns its frame.
func goldenWireDocFrame(tb testing.TB) ([]byte, Message) {
	tb.Helper()
	beacon := Message{
		Type:    TBeacon,
		From:    PeerInfo{Addr: "10.0.0.1:7000", Coord: []float64{1, 2}, Capacity: 50},
		GroupID: "chat",
		Epoch:   3,
	}
	frame, err := EncodeMessage(&beacon)
	if err != nil {
		tb.Fatal(err)
	}
	return frame, beacon
}

const goldenPath = "testdata/golden.txt"

// TestGoldenVectors pins the binary encoding of every message type
// byte-for-byte. Run `go test ./internal/wire -run TestGoldenVectors -update`
// to regenerate after an intentional format change (which requires a wire
// version bump — these bytes are the protocol).
func TestGoldenVectors(t *testing.T) {
	entries := goldenMessages()
	if *updateGolden {
		var out bytes.Buffer
		fmt.Fprintln(&out, "# Golden binary wire vectors: <name> <hex frame>.")
		fmt.Fprintln(&out, "# Regenerate with: go test ./internal/wire -run TestGoldenVectors -update")
		for _, e := range entries {
			enc, err := EncodeMessage(&e.msg)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			fmt.Fprintf(&out, "%s %s\n", e.name, hex.EncodeToString(enc))
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	want := readGolden(t)
	seen := make(map[string]bool)
	for _, e := range entries {
		seen[e.name] = true
		enc, err := EncodeMessage(&e.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", e.name, err)
		}
		wantHex, ok := want[e.name]
		if !ok {
			t.Errorf("%s: missing from %s (run with -update)", e.name, goldenPath)
			continue
		}
		if got := hex.EncodeToString(enc); got != wantHex {
			t.Errorf("%s: wire format drifted — this breaks deployed peers.\n got %s\nwant %s",
				e.name, got, wantHex)
		}
		// The pinned bytes must also decode back to the source message, so
		// a future codec keeps reading frames today's codec wrote.
		raw, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatalf("%s: corrupt golden hex: %v", e.name, err)
		}
		dec, err := DecodeMessage(raw)
		if err != nil {
			t.Fatalf("%s: golden bytes no longer decode: %v", e.name, err)
		}
		if !msgEquivalent(&dec, &e.msg) {
			t.Errorf("%s: golden bytes decode to a different message:\n got %+v\nwant %+v",
				e.name, dec, e.msg)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("stale golden entry %q (run with -update)", name)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hexStr
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireDocHexDumpMatchesCodec holds docs/WIRE.md to the truth: the worked
// hex dump of the beacon frame in the spec must be exactly what the codec
// emits for the example message.
func TestWireDocHexDumpMatchesCodec(t *testing.T) {
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Skipf("docs/WIRE.md not readable: %v", err)
	}
	// The dump sits in a fenced block opened by ```hexdump; each line is
	// hexdump -C style: "offset  hh hh ... hh  |ascii|". Concatenate the
	// byte columns of every such block line.
	var hexBytes []string
	inDump := false
	byteRe := regexp.MustCompile(`^[0-9a-f]{2}$`)
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```hexdump"):
			inDump = true
		case inDump && strings.HasPrefix(line, "```"):
			inDump = false
		case inDump:
			body := line
			if i := strings.Index(body, "|"); i >= 0 {
				body = body[:i]
			}
			fields := strings.Fields(body)
			if len(fields) == 0 {
				continue
			}
			// fields[0] is the offset column; the rest must be hex bytes.
			for _, f := range fields[1:] {
				if !byteRe.MatchString(f) {
					t.Fatalf("unparseable hexdump token %q in WIRE.md line %q", f, line)
				}
				hexBytes = append(hexBytes, f)
			}
		}
	}
	if len(hexBytes) == 0 {
		t.Fatal("no ```hexdump block found in docs/WIRE.md")
	}
	docFrame, err := hex.DecodeString(strings.Join(hexBytes, ""))
	if err != nil {
		t.Fatalf("WIRE.md hex dump is not valid hex: %v", err)
	}
	frame, beacon := goldenWireDocFrame(t)
	if !bytes.Equal(docFrame, frame) {
		t.Fatalf("WIRE.md hex dump does not match the codec:\n doc   %x\n codec %x",
			docFrame, frame)
	}
	// And the documented frame must decode to the example message.
	got, err := DecodeMessage(docFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !msgEquivalent(&got, &beacon) {
		t.Fatalf("documented frame decoded to %+v", got)
	}
}
