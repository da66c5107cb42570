package invariant

import (
	"fmt"
	"strings"
	"testing"
)

func TestRootUniqueness(t *testing.T) {
	c := New()
	c.ObserveRoot("g", 1, "n1")
	c.ObserveRoot("g", 1, "n1") // idempotent
	c.ObserveRoot("g", 2, "n2") // new epoch, new root: fine
	c.ObserveRoot("h", 1, "n3") // other group: fine
	c.ObserveRoot("", 1, "")    // empty root ignored
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	c.ObserveRoot("g", 2, "n9")
	v := c.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "root-uniqueness") {
		t.Fatalf("split brain not flagged: %v", v)
	}
}

func TestFIFOAndDuplicates(t *testing.T) {
	c := New()
	c.ObserveDelivery("sub", "g", "src", 1)
	c.ObserveDelivery("sub", "g", "src", 2)
	c.ObserveDelivery("sub", "g", "src", 5) // gaps are fine (loss recovered later)
	c.ObserveDelivery("sub2", "g", "src", 1)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	c.ObserveDelivery("sub", "g", "src", 5) // duplicate
	c.ObserveDelivery("sub", "g", "src", 3) // regression
	v := c.Violations()
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "duplicate-delivery") || !strings.Contains(joined, "fifo-regression") {
		t.Fatalf("wrong findings: %v", v)
	}
}

func TestBoundedState(t *testing.T) {
	c := New()
	c.ObserveBound("n1", "dedup-entries", 100, 100)
	if c.Count() != 0 {
		t.Fatal("at-bound sample flagged")
	}
	c.ObserveBound("n1", "dedup-entries", 101, 100)
	if v := c.Violations(); len(v) != 1 || !strings.Contains(v[0], "bounded-state") {
		t.Fatalf("over-bound sample not flagged: %v", v)
	}
}

func TestViolationOverflow(t *testing.T) {
	c := New()
	for i := 0; i < MaxViolations+25; i++ {
		c.ObserveBound("n", fmt.Sprintf("res-%04d", i), 2, 1)
	}
	if c.Count() != MaxViolations+25 {
		t.Fatalf("Count = %d, want %d", c.Count(), MaxViolations+25)
	}
	v := c.Violations()
	if len(v) != MaxViolations+1 {
		t.Fatalf("kept %d lines, want %d + overflow", len(v), MaxViolations)
	}
	if !strings.Contains(v[len(v)-1], "25 more") {
		t.Fatalf("overflow line wrong: %q", v[len(v)-1])
	}
}
