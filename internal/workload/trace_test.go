package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	cheetah "repro"
)

func TestByNameSynthesizesTraceWorkloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mini.trace")
	text := "#cheetah-trace v1\n" +
		"#program 4 mini\n" +
		"#phase 0 p work\n" +
		"1 w 0x10000040 4 1 0 0\n" +
		"2 w 0x10000044 4 1 0 0\n" +
		"#threadend 1 0 1\n" +
		"#threadend 2 0 1\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	name := TracePrefix + path
	if !IsTraceName(name) || IsTraceName("figure1") {
		t.Error("IsTraceName misclassifies names")
	}
	w, ok := ByName(name)
	if !ok {
		t.Fatalf("ByName(%q) not found", name)
	}
	if w.Name != name || w.Suite != "trace" {
		t.Errorf("synthesized workload = %q suite %q", w.Name, w.Suite)
	}
	sys := cheetah.New(cheetah.Config{Cores: 4})
	prog := w.Build(sys, Params{Threads: 16, Scale: 3}) // params ignored by replay
	if prog.Name != "mini" || len(prog.Phases) != 1 {
		t.Errorf("replayed program %q with %d phases, want mini/1", prog.Name, len(prog.Phases))
	}
	res := sys.Run(prog)
	if len(res.Threads) != 2 {
		t.Errorf("replayed %d threads, want 2", len(res.Threads))
	}
}

func TestTraceWorkloadBuildPanicsOnMissingFile(t *testing.T) {
	w, ok := ByName(TracePrefix + "/no/such/file.trace")
	if !ok {
		t.Fatal("trace pseudo-workload not synthesized")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("Build on a missing trace did not panic")
		} else if !strings.Contains(r.(string), "opening trace") {
			t.Errorf("panic %v does not name the trace", r)
		}
	}()
	w.Build(cheetah.New(cheetah.Config{Cores: 4}), Params{})
}

func TestRegisteredNamesExcludeTracePseudoWorkloads(t *testing.T) {
	for _, n := range Names() {
		if IsTraceName(n) {
			t.Errorf("registry lists pseudo-workload %q", n)
		}
	}
}

// TestSplitTraceName pins the name grammar: only a well-formed
// `@<lo>-<hi>` suffix with 0 <= lo <= hi is a phase range; anything
// else — including '@' inside file names — stays part of the path.
func TestSplitTraceName(t *testing.T) {
	cases := []struct {
		name   string
		path   string
		lo, hi int
		ranged bool
	}{
		{"trace:big.trace", "big.trace", 0, 0, false},
		{"trace:big.trace@0-63", "big.trace", 0, 63, true},
		{"trace:big.trace@7-7", "big.trace", 7, 7, true},
		{"trace:dir@v2/big.trace@1-2", "dir@v2/big.trace", 1, 2, true},
		{"trace:odd@name.trace", "odd@name.trace", 0, 0, false},
		{"trace:big.trace@5-2", "big.trace@5-2", 0, 0, false},
		{"trace:big.trace@-1-3", "big.trace@-1-3", 0, 0, false},
		{"trace:big.trace@a-b", "big.trace@a-b", 0, 0, false},
		{"trace:big.trace@12", "big.trace@12", 0, 0, false},
		{"trace:big.trace@-", "big.trace@-", 0, 0, false},
	}
	for _, tc := range cases {
		path, lo, hi, ranged := splitTraceName(tc.name)
		if path != tc.path || lo != tc.lo || hi != tc.hi || ranged != tc.ranged {
			t.Errorf("splitTraceName(%q) = (%q, %d, %d, %v), want (%q, %d, %d, %v)",
				tc.name, path, lo, hi, ranged, tc.path, tc.lo, tc.hi, tc.ranged)
		}
	}
}
