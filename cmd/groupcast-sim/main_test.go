package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1000,2000", []int{1000, 2000}, false},
		{" 500 , 600 ", []int{500, 600}, false},
		{"1000,,2000", []int{1000, 2000}, false},
		{"", nil, true},
		{"abc", nil, true},
		{"5", nil, true}, // below minimum
	}
	for _, c := range cases {
		got, err := parseSizes(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseSizes(%q) err = %v, wantErr = %v", c.in, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseSizes(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunPreferenceFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunSmallSweepFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	var out bytes.Buffer
	err := run([]string{"-exp", "fig11", "-sizes", "200", "-groups", "1", "-exact"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 11") || !strings.Contains(s, "GroupCast") {
		t.Fatalf("output: %q", s)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "nope", "-sizes", "200"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-sizes", "x"}, &out); err == nil {
		t.Fatal("bad sizes accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}
