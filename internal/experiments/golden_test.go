package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden (with -full, results_full.txt too) from the current code")
	fullSize     = flag.Bool("full", false, "also render every section at full size, seed 1, and compare with results_full.txt")
)

// fullResults holds groupcast-sim -exp all -seed 1.
const fullResults = "../../results_full.txt"

// TestPaperFiguresGolden locks the paper's figures: the small renders of the
// section table, grouped by golden file in table order, are byte for byte
// what testdata/<golden>.golden holds, and every golden file belongs to a
// section. A diff here means a figure moved; if that was the intent,
// regenerate with
//
//	go test ./internal/experiments -run TestPaperFiguresGolden -update
//
// and say in the change which numbers moved and why. With -full it also
// renders every section at full size (about 80 s on two cores) and
// compares that with results_full.txt, which -full -update rewrites. The
// golden files render concurrently, each into its own buffer.
func TestPaperFiguresGolden(t *testing.T) {
	var files []string
	byFile := map[string][]section{}
	for _, s := range sections {
		if (s.small == nil) != (s.golden == "") {
			t.Errorf("section %s: a small render needs a golden file, and a golden file a small render", s.names[0])
		}
		if s.small == nil {
			continue
		}
		if byFile[s.golden] == nil {
			files = append(files, s.golden)
		}
		byFile[s.golden] = append(byFile[s.golden], s)
	}
	got, err := mapOrdered(0, len(files), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		for _, s := range byFile[files[i]] {
			if err := s.small(&buf); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range files {
		checkGolden(t, filepath.Join("testdata", name+".golden"), got[i])
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if byFile[strings.TrimSuffix(filepath.Base(path), ".golden")] == nil {
			t.Errorf("%s belongs to no section: delete it or give a section its name", path)
		}
	}

	if !*fullSize {
		return
	}
	var full bytes.Buffer
	if err := render(&full, sections, DefaultSweepConfig(), "\n"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fullResults, full.Bytes())
}

// checkGolden compares got with the file at path (or, with -update, writes
// it there) and names the first lines that differ.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (regenerate with -update)", err)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var diff []string
	for i := 0; i < max(len(gl), len(wl)) && len(diff) < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			diff = append(diff, fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g, w))
		}
	}
	t.Errorf("%s moved (%d lines now, %d in the file); first differences:\n%s",
		path, len(gl), len(wl), strings.Join(diff, "\n"))
}
