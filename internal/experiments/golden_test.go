package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGoldenQuick -update
//
// Review the diff before committing — a golden change means the
// simulated results changed.
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenQuick pins the text and CSV outputs of every registered
// experiment at -quick fidelity (the exact artifacts `cmd/figures
// -quick` writes), so a refactor cannot silently change the paper's
// reproduced numbers. Results are deterministic in the worker count
// (see the determinism tests), so the comparison is byte-exact.
func TestGoldenQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration runs the full quick registry")
	}
	opts := Quick()
	registered := map[string]bool{}
	for _, e := range AllWithExtensions() {
		registered[e.ID+".txt"], registered[e.ID+".csv"] = true, true
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.ID+".txt", rep.Table())
			checkGolden(t, e.ID+".csv", rep.CSV())
		})
	}
	// A golden whose id is no longer registered means an experiment
	// was dropped or renamed without its recorded output.
	files, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !registered[f.Name()] {
			t.Errorf("orphan golden %s: no registered experiment writes it", f.Name())
		}
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; diff:\n%s\n(run with -update if the change is intended)",
			name, goldenDiff(string(want), got))
	}
}

// goldenDiff renders a compact first-divergence report (full diffs of
// 20-line tables are noise; the first differing line localizes it).
func goldenDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "(no line-level difference; whitespace?)"
}
