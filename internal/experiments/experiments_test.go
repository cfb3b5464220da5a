package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

// wallClock lists the experiments that run on real sockets and the
// wall clock: their figures vary from run to run, so they have no
// golden transcript.
var wallClock = map[string]bool{"ext-peernet": true, "ext-tenancy": true, "ext-checkpoint": true}

// TestAllExperimentsPassChecks runs every registered experiment at
// reduced scale and asserts every built-in shape check against the
// paper's reported behaviour passes. Every simulated experiment's
// rendered outcome must also equal its golden transcript byte for byte.
func TestAllExperimentsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	p := QuickParams()
	p.Cache = NewCache()
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			o, err := exp.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(o.Checks) == 0 {
				t.Fatalf("%s produced no checks", exp.ID)
			}
			for _, c := range o.Checks {
				if c.Pass {
					t.Logf("PASS %s — %s", c.Name, c.Detail)
				} else {
					t.Errorf("FAIL %s — %s", c.Name, c.Detail)
				}
			}
			if len(o.Tables) == 0 && len(o.Charts) == 0 {
				t.Errorf("%s produced no tables or charts", exp.ID)
			}
			if !wallClock[exp.ID] {
				compareGolden(t, exp.ID, o)
			}
		})
	}
}

// compareGolden checks o's rendering against testdata/golden/<id>.txt,
// or rewrites the file under -update.
func compareGolden(t *testing.T, id string, o *Outcome) {
	t.Helper()
	var b strings.Builder
	o.Render(&b)
	path := filepath.Join("testdata", "golden", id+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", id, path, got, want)
	}
}

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%q) failed: %v", e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID should fail for unknown ids")
	}
}

func TestOutcomeRenderAndFailed(t *testing.T) {
	o := &Outcome{}
	o.check("good", true, "fine")
	o.check("bad", false, "broken %d", 7)
	if got := o.Failed(); len(got) != 1 || !strings.Contains(got[0], "broken 7") {
		t.Fatalf("Failed() = %v", got)
	}
	var b strings.Builder
	o.Render(&b)
	out := b.String()
	if !strings.Contains(out, "[PASS] good") || !strings.Contains(out, "[FAIL] bad") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCacheReuses(t *testing.T) {
	p := QuickParams()
	p.Runs = 1
	p.Cache = NewCache()
	ds100, _ := p.Datasets()
	a, err := run(VanillaLocal, "lenet", ds100, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(VanillaLocal, "lenet", ds100, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not reuse the aggregate")
	}
	// Different configuration must miss.
	pp := p
	pp.PlacementThreads++
	c, err := run(VanillaLocal, "lenet", ds100, pp)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("cache conflated distinct configurations")
	}
}

func TestWithinAndReduction(t *testing.T) {
	if !within(100, 105, 0.10) || within(100, 150, 0.10) {
		t.Fatal("within broken")
	}
	if !within(0, 0, 0.1) {
		t.Fatal("within(0,0) should hold")
	}
	if r := reduction(200, 150); r != 0.25 {
		t.Fatalf("reduction = %v", r)
	}
	if reduction(0, 5) != 0 {
		t.Fatal("reduction with zero baseline")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := DefaultParams(0.5)
	if p.SSDQuota() != (115<<30)/2 {
		t.Fatalf("quota = %d", p.SSDQuota())
	}
	ds100, ds200 := p.Datasets()
	if ds100.TotalBytes != 50<<30 || ds200.TotalBytes != 100<<30 {
		t.Fatalf("dataset sizes %d/%d", ds100.TotalBytes, ds200.TotalBytes)
	}
	if p.ScaledDuration(100).Seconds() != 50 {
		t.Fatal("ScaledDuration broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad scale should panic")
		}
	}()
	DefaultParams(2)
}

func TestQuotaCovered(t *testing.T) {
	p := QuickParams()
	_, ds200 := p.Datasets()
	man, err := planFor(ds200)
	if err != nil {
		t.Fatal(err)
	}
	cov := quotaCovered(man, p.SSDQuota())
	// 115 GiB of 200 GiB ≈ 57.5%.
	if cov < 0.5 || cov > 0.65 {
		t.Fatalf("coverage = %v", cov)
	}
	if quotaCovered(man, 0) != 1 || quotaCovered(man, man.TotalBytes()+1) != 1 {
		t.Fatal("degenerate coverage cases")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		runs, epochs int
		want         string // "" = accepted
	}{
		{"defaults", 7, 3, ""},
		{"one run, many epochs", 1, 5, ""},
		{"no runs", 0, 3, "at least one run"},
		{"negative runs", -1, 3, "at least one run"},
		{"two epochs", 1, 2, "compare epochs 1-3"},
		{"no epochs", 3, 0, "compare epochs 1-3"},
	} {
		p := QuickParams()
		p.Runs, p.Epochs = tc.runs, tc.epochs
		err := p.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
