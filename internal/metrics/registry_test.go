package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", DefaultLatencyBuckets())
	if h2 := r.Histogram("lat", nil); h2 != h1 {
		t.Fatal("second Histogram lookup returned a different instrument")
	}
	// Counters are callbacks over state the owner keeps, sampled at snapshot
	// time; re-registering a name replaces the callback.
	var sends uint64
	r.Counter("sends", func() uint64 { return 99 })
	r.Counter("sends", func() uint64 { return sends })
	sends = 3
	if snap := r.Snapshot(); snap.Counters["sends"] != 3 {
		t.Fatalf("snapshot counter = %d, want 3", snap.Counters["sends"])
	}
}

// TestCounterFields pins the one field walker: names are the snake_case of
// the Go field names with nested structs as a prefix, every uint64 is listed
// once in declaration order, and the folds touch every listed field.
func TestCounterFields(t *testing.T) {
	type inner struct{ InboxSheds, X uint64 }
	type outer struct {
		Sent      map[string]uint64
		Delivered uint64
		SLOAlerts uint64
		DhtStores uint64
		Label     string
		Transport inner
	}
	fields := CounterFields(reflect.TypeOf(outer{}))
	var names []string
	for _, f := range fields {
		names = append(names, f.Name)
	}
	want := []string{"delivered", "slo_alerts", "dht_stores", "transport_inbox_sheds", "transport_x"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	a := outer{Delivered: 5, SLOAlerts: 1, Transport: inner{InboxSheds: 2, X: 9}}
	b := outer{Delivered: 7, DhtStores: 4, Transport: inner{InboxSheds: 3, X: 1}}
	sum := a
	FoldCounters(fields, &sum, &b, AddCounter)
	if sum.Delivered != 12 || sum.SLOAlerts != 1 || sum.DhtStores != 4 || sum.Transport != (inner{5, 10}) {
		t.Fatalf("AddCounter fold = %+v", sum)
	}
	diff := a
	FoldCounters(fields, &diff, &b, SubCounter)
	if diff.Delivered != 0 || diff.SLOAlerts != 1 || diff.DhtStores != 0 || diff.Transport != (inner{0, 8}) {
		t.Fatalf("SubCounter fold = %+v (must saturate at 0)", diff)
	}
}

func TestSnapshotClampsNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan", func() float64 { return math.NaN() })
	r.Gauge("inf", func() float64 { return math.Inf(1) })
	r.Gauge("ok", func() float64 { return 2.5 })
	snap := r.Snapshot()
	if snap.Gauges["nan"] != 0 || snap.Gauges["inf"] != 0 {
		t.Fatalf("non-finite gauges not clamped: %v", snap.Gauges)
	}
	if snap.Gauges["ok"] != 2.5 {
		t.Fatalf("finite gauge altered: %v", snap.Gauges["ok"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot must marshal to JSON: %v", err)
	}
}

func TestHistogramBucketsAndOverflow(t *testing.T) {
	h := NewFixedHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1000, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7 (NaN ignored)", s.Count)
	}
	got := []uint64{s.Buckets[0].Count, s.Buckets[1].Count, s.Buckets[2].Count, s.Overflow}
	want := []uint64{2, 2, 2, 1} // <=1:{0.5,1} <=10:{1.5,10} <=100:{99,100} over:{1000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket counts = %v, want %v", got, want)
	}
	if math.Abs(s.Sum-1212.0) > 1e-9 {
		t.Fatalf("Sum = %v, want 1212", s.Sum)
	}
}

func TestHistogramQuantileDeterministicAcrossOrder(t *testing.T) {
	values := make([]float64, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range values {
		values[i] = rng.Float64() * 2000
	}
	quantiles := func(order []int) (string, HistogramSnapshot) {
		h := NewFixedHistogram(DefaultLatencyBuckets())
		for _, i := range order {
			h.Observe(values[i])
		}
		// Quantiles are pure functions of the integer bucket counts, so they
		// are exactly order-independent. The float Sum (and hence Mean) is
		// accumulated by CAS and only order-independent up to rounding; the
		// deterministic pipelines in internal/experiments feed histograms
		// serially in index order for that reason.
		s := h.Snapshot()
		b, err := json.Marshal(struct {
			P50, P90, P99 float64
		}{s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)})
		if err != nil {
			t.Fatal(err)
		}
		return string(b), s
	}
	forward := make([]int, len(values))
	reverse := make([]int, len(values))
	for i := range values {
		forward[i] = i
		reverse[i] = len(values) - 1 - i
	}
	qf, sf := quantiles(forward)
	qr, sr := quantiles(reverse)
	qs, _ := quantiles(rng.Perm(len(values)))
	if qf != qr || qf != qs {
		t.Fatalf("quantiles depend on observation order:\nforward %s\nreverse %s\nshuffle %s", qf, qr, qs)
	}
	if !reflect.DeepEqual(sf.Buckets, sr.Buckets) || sf.Overflow != sr.Overflow {
		t.Fatal("bucket counts depend on observation order")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
	h := NewFixedHistogram([]float64{10, 100})
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	if q := s.Quantile(-1); q < 0 || q > 10 {
		t.Fatalf("q<0 not clamped: %v", q)
	}
	if q := s.Quantile(2); q != 100 {
		t.Fatalf("q>1 not clamped to max bucket: %v", q)
	}
	// All mass above the last bound: quantiles floor at the last finite bound.
	over := NewFixedHistogram([]float64{1})
	over.Observe(99)
	if q := over.Snapshot().Quantile(0.5); q != 1 {
		t.Fatalf("overflow-only quantile = %v, want last bound 1", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewFixedHistogram(DefaultLatencyBuckets())
	const writers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("Count = %d, want %d", s.Count, writers*per)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	bucketSum += s.Overflow
	if bucketSum != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, s.Count)
	}
	// 8 workers each observe sum(0..99)*10 = 49500.
	if want := float64(writers) * 49500 * (per / 1000); math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", s.Sum, want)
	}
}
