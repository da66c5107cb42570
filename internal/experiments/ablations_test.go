package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationTwoLayerWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var b bytes.Buffer
	if err := AblationTwoLayer(&b, 1, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "flat") || !strings.Contains(out, "two-layer") {
		t.Fatalf("output incomplete:\n%s", out)
	}
}

func TestAblationChurnWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var b bytes.Buffer
	if err := AblationChurn(&b, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "epoch (ms)") {
		t.Fatalf("output incomplete:\n%s", out)
	}
	// At least a handful of epochs must have run.
	if strings.Count(out, "\n") < 8 {
		t.Fatalf("too few epochs:\n%s", out)
	}
	// The overlay must stay connected (the column says "true" everywhere).
	if strings.Contains(out, "false") {
		t.Fatalf("overlay disconnected during churn:\n%s", out)
	}
}
