package cpu

import (
	"bytes"
	"testing"

	"avgi/internal/asm"
)

// clusterProg builds a small output-producing program: writes a tag byte
// sequence to the output region and halts.
func clusterProg(t *testing.T, cfg Config) *asm.Program {
	t.Helper()
	b := asm.NewBuilder("cluster-test", cfg.Variant)
	b.Li(1, asm.DefaultOutBase)
	for i, ch := range []byte("multicore") {
		b.Li(2, uint64(ch))
		b.Sb(2, 1, int32(i))
	}
	b.Li(3, asm.DefaultOutLenAddr)
	b.Li(4, 9)
	b.StoreW(4, 3, 0)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClusterRunsWorkload(t *testing.T) {
	for _, cfg := range configs() {
		p := clusterProg(t, cfg)

		single := New(cfg, p)
		sres := single.Run(RunOptions{MaxCycles: 2_000_000})
		if sres.Status != StatusHalted {
			t.Fatalf("%s: single-core status %v/%v", cfg.Name, sres.Status, sres.Crash)
		}

		cl := NewCluster(cfg, p, 2)
		res := cl.Run(RunOptions{MaxCycles: 2_000_000})
		if res.Status != StatusHalted {
			t.Fatalf("%s: cluster status %v/%v", cfg.Name, res.Status, res.Crash)
		}
		// Both cores run the same program in disjoint windows: the
		// cluster output is two copies of the single-core output, and
		// commits double.
		want := append(append([]byte(nil), sres.Output...), sres.Output...)
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("%s: cluster output %q, want %q", cfg.Name, res.Output, want)
		}
		if res.Commits != 2*sres.Commits {
			t.Fatalf("%s: cluster commits %d, want %d", cfg.Name, res.Commits, 2*sres.Commits)
		}
	}
}

func TestClusterSameSeedTwiceIsIdentical(t *testing.T) {
	cfg := ConfigA72()
	p := clusterProg(t, cfg)
	run := func() Result {
		return NewCluster(cfg, p, 2).Run(RunOptions{MaxCycles: 2_000_000})
	}
	a, b := run(), run()
	if a.Status != b.Status || a.Cycles != b.Cycles || a.Commits != b.Commits ||
		!bytes.Equal(a.Output, b.Output) {
		t.Fatalf("cluster runs diverged: %+v vs %+v", a, b)
	}
}

func TestClusterCloneResumesIdentically(t *testing.T) {
	cfg := ConfigA72()
	p := clusterProg(t, cfg)

	golden := NewCluster(cfg, p, 2).Run(RunOptions{MaxCycles: 2_000_000})

	// The mother-cluster pattern: advance partway, clone, finish the clone.
	mother := NewCluster(cfg, p, 2)
	mother.Run(RunOptions{MaxCycles: 2_000_000, StopAtCycle: golden.Cycles / 2})
	if got := mother.Cycle(); got < golden.Cycles/2 {
		t.Fatalf("mother stopped at %d, want >= %d", got, golden.Cycles/2)
	}
	clone := mother.Clone()
	res := clone.Run(RunOptions{MaxCycles: 2_000_000})
	if res.Status != golden.Status || res.Cycles != golden.Cycles ||
		res.Commits != golden.Commits || !bytes.Equal(res.Output, golden.Output) {
		t.Fatalf("clone result %+v diverged from golden %+v", res, golden)
	}

	// The mother, resumed directly, also matches (clone didn't disturb it).
	mres := mother.Run(RunOptions{MaxCycles: 2_000_000})
	if mres.Cycles != golden.Cycles || !bytes.Equal(mres.Output, golden.Output) {
		t.Fatalf("mother result %+v diverged from golden %+v", mres, golden)
	}
}

func TestClusterTargetsAndValidate(t *testing.T) {
	cfg := ConfigA72()
	p := clusterProg(t, cfg)
	cl := NewCluster(cfg, p, 2)

	targets := cl.Targets()
	if len(targets) != 2*len(StructureNames) {
		t.Fatalf("cluster targets = %d, want %d", len(targets), 2*len(StructureNames))
	}
	for _, name := range []string{"c0/RF", "c1/RF", "c0/L2 (Tag)", "c1/ROB"} {
		if cl.Target(name) == nil {
			t.Errorf("Target(%q) = nil", name)
		}
		if err := ValidateStructure(name); err != nil {
			t.Errorf("ValidateStructure(%q): %v", name, err)
		}
	}
	if cl.Target("c2/RF") != nil {
		t.Error("Target(c2/RF) resolved on a 2-core cluster")
	}
	if cl.Target("RF") != nil {
		t.Error("unprefixed Target(RF) resolved on a cluster")
	}
	for _, bad := range []string{"c0/NOPE", "cX/RF", "RFX"} {
		if err := ValidateStructure(bad); err == nil {
			t.Errorf("ValidateStructure(%q) accepted", bad)
		}
	}
	// Plain single-core names still validate.
	for _, name := range StructureNames {
		if err := ValidateStructure(name); err != nil {
			t.Errorf("ValidateStructure(%q): %v", name, err)
		}
	}

	// Per-core RF targets are independent arrays...
	if &cl.Core(0).prf[0] == &cl.Core(1).prf[0] {
		t.Fatal("per-core register files alias")
	}
	// ...but the shared L2's arrays are one physical structure.
	c0l2 := cl.Target("c0/L2 (Data)")
	before := cl.Core(1).Mem.L2.DataArray()
	_ = before
	c0l2.FlipBit(0)
	probe := cl.Core(1).Mem.L2.DataArray()
	probe.FlipBit(0) // flipping back through c1's view restores the bit
	c0l2.FlipBit(0)
	probe.FlipBit(0)
	// If the two views aliased different arrays the double round-trip
	// would leave state changed; verify via a fresh cluster comparison run.
	res := cl.Run(RunOptions{MaxCycles: 2_000_000})
	fresh := NewCluster(cfg, p, 2).Run(RunOptions{MaxCycles: 2_000_000})
	if !bytes.Equal(res.Output, fresh.Output) || res.Cycles != fresh.Cycles {
		t.Fatalf("L2 flip round-trip left residue: %+v vs %+v", res, fresh)
	}
}

func TestSplitCoreTarget(t *testing.T) {
	cases := []struct {
		in   string
		core int
		rest string
		ok   bool
	}{
		{"c0/RF", 0, "RF", true},
		{"c12/L2 (Tag)", 12, "L2 (Tag)", true},
		{"RF", 0, "", false},
		{"c/RF", 0, "", false},
		{"cX/RF", 0, "", false},
		{"d0/RF", 0, "", false},
	}
	for _, c := range cases {
		core, rest, ok := SplitCoreTarget(c.in)
		if core != c.core && c.ok || rest != c.rest || ok != c.ok {
			t.Errorf("SplitCoreTarget(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.in, core, rest, ok, c.core, c.rest, c.ok)
		}
	}
}
