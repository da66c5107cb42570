package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestTracePathDeterministicAcrossWorkers is the acceptance gate for the
// tracepath experiment: a fixed seed must render byte-identical output —
// histogram quantiles included — whether the cells run serially or fanned
// out over many workers.
func TestTracePathDeterministicAcrossWorkers(t *testing.T) {
	var serial, fanned bytes.Buffer
	if err := RunTracePathConfig(&serial, smallTracePathConfig(1)); err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if err := RunTracePathConfig(&fanned, smallTracePathConfig(8)); err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), fanned.Bytes()) {
		t.Errorf("tracepath output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial.String(), fanned.String())
	}
}

// TestTracePathOutputShape checks the report carries both tables with all
// four cost components for both schemes and non-empty hop populations.
func TestTracePathOutputShape(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTracePathConfig(&buf, smallTracePathConfig(0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"per-hop latency breakdown",
		"cumulative delivery latency by tree depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, scheme := range []string{"SSA", "NSSA"} {
		for _, part := range []string{"queue", "handle", "wire", "total"} {
			found := false
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line)
				if len(f) >= 3 && f[0] == scheme && f[1] == part {
					found = true
					if f[2] == "0" {
						t.Errorf("%s %s histogram is empty", scheme, part)
					}
					break
				}
			}
			if !found {
				t.Errorf("no %s %s row in output:\n%s", scheme, part, out)
			}
		}
	}
}
