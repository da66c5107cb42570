package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		if _, err := e.At(at, func(_ *Engine, now Time) {
			got = append(got, now)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fired := e.Run(0); fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.At(5, func(_ *Engine, _ Time) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp order not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPast(t *testing.T) {
	e := New()
	if _, err := e.At(10, func(_ *Engine, _ Time) {}); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if _, err := e.At(5, func(_ *Engine, _ Time) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := New()
	if _, err := e.At(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := New()
	fired := false
	if _, err := e.After(-5, func(_ *Engine, now Time) {
		fired = true
		if now != 0 {
			t.Errorf("fired at %v, want 0", now)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if !fired {
		t.Fatal("event did not fire")
	}
}

func TestHandlersScheduleFollowups(t *testing.T) {
	e := New()
	var ticks []Time
	var tick Handler
	tick = func(en *Engine, now Time) {
		ticks = append(ticks, now)
		if now < 50 {
			if _, err := en.After(10, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := e.At(0, tick); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if len(ticks) != 6 { // 0,10,20,30,40,50
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		if _, err := e.At(at, func(_ *Engine, now Time) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	n := e.RunUntil(20)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("fired %d events %v, want 2", n, fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.Run(0)
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		if _, err := e.At(Time(i), func(_ *Engine, _ Time) { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	if fired := e.Run(4); fired != 4 || count != 4 {
		t.Fatalf("fired=%d count=%d, want 4", fired, count)
	}
	if len(e.queue) != 6 {
		t.Fatalf("pending = %d, want 6", len(e.queue))
	}
}

func TestTimestampOrderProperty(t *testing.T) {
	// Property: for any random set of timestamps, events fire in sorted order.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		times := make([]float64, count)
		var got []Time
		for i := 0; i < count; i++ {
			at := Time(rng.Float64() * 1000)
			times[i] = float64(at)
			if _, err := e.At(at, func(_ *Engine, now Time) { got = append(got, now) }); err != nil {
				return false
			}
		}
		e.Run(0)
		sort.Float64s(times)
		if len(got) != count {
			return false
		}
		for i := range got {
			if float64(got[i]) != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
