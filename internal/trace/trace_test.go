package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func ev(i int) Event {
	return Event{Node: "n", Kind: KindRecv, Seq: uint64(i)}
}

func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

func TestRingKeepsNewestAtCapacity(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Record(ev(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	got := seqs(r.Snapshot())
	want := []uint64{7, 8, 9, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot seqs = %v, want %v (oldest first)", got, want)
		}
	}
}

func TestRingPartialFillIsOrdered(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 3; i++ {
		r.Record(ev(i))
	}
	got := seqs(r.Snapshot())
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Snapshot seqs = %v, want [1 2 3]", got)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(ev(1))
	r.Record(ev(2))
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (capacity clamps to 1)", r.Len())
	}
	if got := seqs(r.Snapshot()); got[0] != 2 {
		t.Fatalf("kept seq %d, want the newest (2)", got[0])
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(ev(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want full capacity 64", r.Len())
	}
}

func TestTracerEventsLimit(t *testing.T) {
	tr := New(16, nil)
	for i := 1; i <= 10; i++ {
		tr.Record(ev(i))
	}
	if got := tr.Events(3); len(got) != 3 || got[0].Seq != 8 || got[2].Seq != 10 {
		t.Fatalf("Events(3) seqs = %v, want the newest three [8 9 10]", seqs(got))
	}
	if got := tr.Events(0); len(got) != 10 {
		t.Fatalf("Events(0) returned %d events, want all 10", len(got))
	}
	if got := tr.Events(100); len(got) != 10 {
		t.Fatalf("Events(100) returned %d events, want all 10", len(got))
	}
}

func TestTracerForwardsToSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(2, NewNDJSON(&buf))
	for i := 1; i <= 5; i++ {
		tr.Record(ev(i))
	}
	// The ring keeps only the newest two, but the sink saw everything.
	if tr.Len() != 2 {
		t.Fatalf("ring Len = %d, want 2", tr.Len())
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
	}
	if lines != 5 {
		t.Fatalf("sink received %d lines, want 5", lines)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	in := Event{
		Time:     time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		Node:     "127.0.0.1:7001",
		Kind:     KindDeliver,
		Msg:      "payload",
		Group:    "demo",
		TraceID:  42,
		Seq:      7,
		Source:   "127.0.0.1:7002",
		Peer:     "127.0.0.1:7003",
		Hop:      3,
		QueueUS:  10,
		HandleUS: 20,
		AgeUS:    1234,
	}
	s.Record(in)
	if s.Errors() != 0 {
		t.Fatalf("Errors = %d, want 0", s.Errors())
	}
	var out Event
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal NDJSON line: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestNDJSONOmitsZeroFields(t *testing.T) {
	var buf bytes.Buffer
	NewNDJSON(&buf).Record(Event{Node: "n", Kind: KindRecv})
	line := buf.String()
	for _, field := range []string{"trace", "seq", "src", "peer", "hop", "n", "queue_us", "handle_us", "send_us", "age_us"} {
		if bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf("%q:", field))) {
			t.Errorf("zero field %s serialized in %s", field, line)
		}
	}
}

func TestFileSinkFsyncAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(8, sink)
	tr.Record(Event{Node: "a", Kind: KindPublish, TraceID: 1})
	tr.Record(Event{Node: "a", Kind: KindAlert, Msg: "slo-latency", Value: 9.5, Threshold: 5})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Idempotent: a second close (node Close called twice) is a no-op.
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("trace file holds %d lines, want 2: %s", len(lines), data)
	}
	var alert Event
	if err := json.Unmarshal(lines[1], &alert); err != nil {
		t.Fatal(err)
	}
	if alert.Kind != KindAlert || alert.Value != 9.5 || alert.Threshold != 5 {
		t.Fatalf("alert event did not round-trip: %+v", alert)
	}
	if tr.SinkErrors() != 0 {
		t.Fatalf("SinkErrors = %d on the clean path", tr.SinkErrors())
	}
	// The ring outlives the sink: introspection still works after Close.
	if tr.Len() != 2 {
		t.Fatalf("ring lost events after Close: %d", tr.Len())
	}
}

func TestFileSinkCountsWritesAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.Record(Event{Node: "a", Kind: KindSend})
	sink.Record(Event{Node: "a", Kind: KindSend})
	if got := sink.Errors(); got != 2 {
		t.Fatalf("Errors = %d after 2 dropped records, want 2", got)
	}
}

func TestTracerCloseWithoutSink(t *testing.T) {
	var tr *Tracer
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer close: %v", err)
	}
	if tr.SinkErrors() != 0 {
		t.Fatal("nil tracer reports sink errors")
	}
	tr = New(4, nil)
	if err := tr.Close(); err != nil {
		t.Fatalf("sinkless close: %v", err)
	}
}
