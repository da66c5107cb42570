package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSuccessionDeterministicAcrossWorkers is the acceptance gate for the
// succession experiment: a fixed seed must render byte-identical output
// whether the cells run serially or fanned out over many workers.
func TestSuccessionDeterministicAcrossWorkers(t *testing.T) {
	var serial, fanned bytes.Buffer
	if err := RunSuccessionConfig(&serial, smallSuccessionConfig(1)); err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if err := RunSuccessionConfig(&fanned, smallSuccessionConfig(8)); err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), fanned.Bytes()) {
		t.Errorf("succession output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial.String(), fanned.String())
	}
}

// TestSuccessionOutputShape checks the report carries both tables, one sweep
// row per roster size, and sane recovery behaviour at the extremes: k = 0
// never recovers, k = 3 recovers most groups with a finite TTR.
func TestSuccessionOutputShape(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSuccessionConfig(&buf, smallSuccessionConfig(0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rendezvous crash recovery vs deputy roster size",
		"partition-heal reconciliation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	row := func(k string) []string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 7 && f[0] == k {
				return f
			}
		}
		return nil
	}
	k0 := row("0")
	if k0 == nil {
		t.Fatalf("no k=0 sweep row:\n%s", out)
	}
	if !strings.HasPrefix(k0[1], "0/") || k0[2] != "-" {
		t.Errorf("k=0 must never recover (got row %v)", k0)
	}
	k3 := row("3")
	if k3 == nil {
		t.Fatalf("no k=3 sweep row:\n%s", out)
	}
	if strings.HasPrefix(k3[1], "0/") || k3[2] == "-" {
		t.Errorf("k=3 should recover groups with a finite TTR (got row %v)", k3)
	}
}
