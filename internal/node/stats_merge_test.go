package node

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

func TestStatsMerge(t *testing.T) {
	a := Stats{
		Sent:      map[string]uint64{"payload": 3, "probe": 1},
		Received:  map[string]uint64{"payload": 2},
		Delivered: 5,
		NacksSent: 1,
		Transport: transport.DropStats{InboxSheds: 2},
	}
	b := Stats{
		Sent:          map[string]uint64{"payload": 4},
		Received:      map[string]uint64{"heartbeat": 7},
		Delivered:     2,
		GapsDetected:  3,
		GapsRecovered: 3,
		Transport:     transport.DropStats{FabricDrops: 1},
	}
	a.Merge(b)
	if a.Sent["payload"] != 7 || a.Sent["probe"] != 1 {
		t.Errorf("merged Sent = %v", a.Sent)
	}
	if a.Received["payload"] != 2 || a.Received["heartbeat"] != 7 {
		t.Errorf("merged Received = %v", a.Received)
	}
	if a.Delivered != 7 || a.NacksSent != 1 || a.GapsDetected != 3 || a.GapsRecovered != 3 {
		t.Errorf("merged scalars wrong: %+v", a)
	}
	if a.Transport.InboxSheds != 2 || a.Transport.FabricDrops != 1 {
		t.Errorf("merged transport stats wrong: %+v", a.Transport)
	}

	// Merging into a zero value must allocate the maps.
	var zero Stats
	zero.Merge(b)
	if zero.Sent["payload"] != 4 || zero.Received["heartbeat"] != 7 {
		t.Errorf("merge into zero value: %+v", zero)
	}
}

func TestStatsDelta(t *testing.T) {
	base := Stats{
		Sent:      map[string]uint64{"payload": 3, "probe": 2},
		Received:  map[string]uint64{"payload": 1},
		Delivered: 4,
		Transport: transport.DropStats{InboxSheds: 1},
	}
	now := Stats{
		Sent:      map[string]uint64{"payload": 10, "probe": 2},
		Received:  map[string]uint64{"payload": 6, "nack": 2},
		Delivered: 9,
		Retries:   1,
		Transport: transport.DropStats{InboxSheds: 3},
	}
	d := now.Delta(base)
	if !reflect.DeepEqual(d.Sent, map[string]uint64{"payload": 7}) {
		t.Errorf("delta Sent = %v (zero-delta entries must be omitted)", d.Sent)
	}
	if !reflect.DeepEqual(d.Received, map[string]uint64{"payload": 5, "nack": 2}) {
		t.Errorf("delta Received = %v", d.Received)
	}
	if d.Delivered != 5 || d.Retries != 1 || d.Transport.InboxSheds != 2 {
		t.Errorf("delta scalars wrong: %+v", d)
	}
	// Counters are monotonic; a stale "now" saturates at zero instead of
	// underflowing.
	if under := base.Delta(now); under.Delivered != 0 || len(under.Sent) != 0 {
		t.Errorf("reversed delta did not saturate: %+v", under)
	}
}

// fillCounters sets every uint64 reachable from v (a struct) to next(), by
// its own recursion rather than the production walker, and fails on a field
// kind the counter plane does not know — so a new Stats field is either
// covered by every derived view or stops this test.
func fillCounters(t *testing.T, v reflect.Value, next func() uint64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Uint64:
			f.SetUint(next())
		case f.Kind() == reflect.Struct:
			fillCounters(t, f, next)
		case f.Type() == reflect.TypeOf(map[string]uint64(nil)):
			// Sent / Received: per-type maps, covered by TestStatsMerge/Delta.
		default:
			t.Fatalf("Stats field %s has kind %s: teach the counter plane about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestStatsViewsCoverEveryField pins the one-declaration rule: every uint64
// reachable from Stats (Transport.* included) is summed by Merge, subtracted
// with saturation by Delta, round-tripped by Stats() from the live tally, and
// registered as a counter under a unique name.
func TestStatsViewsCoverEveryField(t *testing.T) {
	var a, b Stats
	var k uint64
	fillCounters(t, reflect.ValueOf(&a).Elem(), func() uint64 { k++; return 1000 + k })
	n := k
	if int(n) != len(statFields) {
		t.Fatalf("walker lists %d counters, Stats declares %d", len(statFields), n)
	}
	k = 0
	fillCounters(t, reflect.ValueOf(&b).Elem(), func() uint64 { k++; return 3 * k })

	sum := a
	sum.Sent, sum.Received = nil, nil
	sum.Merge(b)
	k = 0
	var want Stats
	fillCounters(t, reflect.ValueOf(&want).Elem(), func() uint64 { k++; return 1000 + 4*k })
	want.Sent, want.Received = map[string]uint64{}, map[string]uint64{}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("Merge missed a field:\n got %+v\nwant %+v", sum, want)
	}

	k = 0
	fillCounters(t, reflect.ValueOf(&want).Elem(), func() uint64 { k++; return 1000 - 2*k })
	if got := a.Delta(b); !reflect.DeepEqual(got, want) {
		t.Errorf("Delta missed a field:\n got %+v\nwant %+v", got, want)
	}
	fillCounters(t, reflect.ValueOf(&want).Elem(), func() uint64 { return 0 })
	if got := b.Delta(a); !reflect.DeepEqual(got, want) {
		t.Errorf("reversed Delta did not saturate every field at 0: %+v", got)
	}

	// Stats() and the registry read the live tally field by field.
	nd := New(stubEndpoint(), DefaultConfig(10, coords.Point{0, 0}, 1))
	defer nd.Close()
	nd.stats.Stats = a
	got := nd.Stats()
	want = a
	want.Sent, want.Received = map[string]uint64{}, map[string]uint64{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Stats() did not round-trip the tally:\n got %+v\nwant %+v", got, want)
	}
	counters := nd.MetricsSnapshot().Counters
	if len(counters) != int(n) {
		t.Errorf("registry holds %d counters, want %d (names must be unique)", len(counters), n)
	}
	for _, f := range statFields {
		if v, ok := counters[f.Name]; !ok || uint64(v) != *f.Ptr(&a) {
			t.Errorf("registry counter %q = %d (present %v), want %d", f.Name, v, ok, *f.Ptr(&a))
		}
	}
	if counters["slo_alerts"] == 0 || counters["transport_best_effort_sheds"] == 0 || counters["state_saves"] == 0 {
		t.Errorf("established metric names changed: %v", counters)
	}
}

// TestTallyTouchedOnlyAtomically guards the one liberty the single
// declaration takes: the live tally's scalars are plain uint64s (so they can
// share Stats' declaration), which the compiler would let someone increment
// non-atomically. Every mention of a tally scalar in non-test code must sit
// directly inside atomic.AddUint64(&…) or atomic.LoadUint64(&…).
func TestTallyTouchedOnlyAtomically(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	use := regexp.MustCompile(`(atomic\.(?:Add|Load)Uint64\(&)?\w+\.stats\.([A-Z]\w*)`)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range use.FindAllStringSubmatch(string(src), -1) {
			if atomicCall, field := m[1], m[2]; atomicCall == "" && field != "Stats" {
				t.Errorf("%s: tally field %s used outside atomic.AddUint64/LoadUint64: %q", name, field, m[0])
			}
		}
	}
}

// TestObservabilityDocListsEveryCounter keeps docs/OBSERVABILITY.md's counter
// table in step with the Stats declaration: every registry name must appear
// there in backticks.
func TestObservabilityDocListsEveryCounter(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range statFields {
		if !strings.Contains(string(doc), "`"+f.Name+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not list counter `%s`", f.Name)
		}
	}
}

// TestSnapshotsRaceSafe hammers every observability snapshot surface —
// Stats, the metrics registry, tree/overlay details and the trace ring —
// from many goroutines while a live cluster keeps publishing. Run under
// -race (CI does) this proves the introspection endpoint can be scraped
// at any moment without torn reads.
func TestSnapshotsRaceSafe(t *testing.T) {
	c := newLive(t, 0, 1, nil)
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig(10, coords.Point{float64(i), 0}, int64(i+1))
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.Tracer = trace.New(128, nil)
		c.add(t, cfg, nodeAddrs(c.nodes))
	}
	nodes := c.nodes
	rdv := nodes[0]
	if err := rdv.CreateGroupMode("race", wire.Reliable); err != nil {
		t.Fatal(err)
	}
	if err := rdv.Advertise("race"); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes[1:] {
		if err := m.Join("race", 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The publisher runs until every scraper is done.
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = rdv.Publish("race", []byte(fmt.Sprintf("m%d", i)))
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc Stats
			var last Stats
			for i := 0; i < 200; i++ {
				for _, nd := range nodes {
					s := nd.Stats()
					acc.Merge(s)
					_ = s.Delta(last)
					last = s
					_ = nd.MetricsSnapshot()
					_ = nd.TreeDetails()
					_ = nd.OverlayView()
					_ = nd.TraceEvents(16)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-published
}
