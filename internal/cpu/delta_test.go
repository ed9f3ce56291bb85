package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/isa"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

// TestMachineDeltaSyncCursorLifecycle drives a machine through the exact
// lifecycle of a cursor worker — advance, delta-capture, run a faulty
// window with real bit flips across all twelve structures, delta-rewind —
// and proves the rewound machine finishes the workload bit-identically to
// an uninterrupted reference run. This is the machine-level dirty-delta
// property test: if any touched state escaped tracking, the post-rewind
// run diverges in trace, output, stats or final cycle.
//
// sha runs the real-workload path. It executes no indirect jump, so a
// second program, predictorChurn, makes every window rewrite BTB and
// bimodal entries that the rewind must put back; after each SyncRestore
// both tables are compared with the snapshot entry by entry.
func TestMachineDeltaSyncCursorLifecycle(t *testing.T) {
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			w, err := prog.ByName("sha")
			if err != nil {
				t.Fatal(err)
			}
			t.Run("sha", func(t *testing.T) { deltaSyncCursorLifecycle(t, cfg, w.Build(cfg.Variant)) })
			t.Run("predictor-churn", func(t *testing.T) { deltaSyncCursorLifecycle(t, cfg, predictorChurn(cfg.Variant)) })
		})
	}
}

func deltaSyncCursorLifecycle(t *testing.T, cfg Config, p *asm.Program) {
	ref := New(cfg, p)
	var refTrace trace.Capture
	ref.SetSink(&refTrace)
	ref.Run(RunOptions{MaxCycles: snapTestMaxCycles})
	if ref.Status() != StatusHalted {
		t.Fatalf("reference run ended %v, want halted", ref.Status())
	}

	m := New(cfg, p)
	m.Run(RunOptions{StopAtCycle: ref.Cycle() / 8, MaxCycles: snapTestMaxCycles})
	m.BeginDeltaTracking()
	snap := m.Snapshot(nil)

	rng := rand.New(rand.NewSource(11))
	step := ref.Cycle() / 16
	for round := 0; round < 10; round++ {
		// Golden advance to the next "injection cycle".
		m.Run(RunOptions{StopAtCycle: m.Cycle() + step, MaxCycles: snapTestMaxCycles})
		m.SyncSnapshot(snap)

		// Faulty window: flip bits in several structures and run on.
		for i := 0; i < 4; i++ {
			name := StructureNames[rng.Intn(len(StructureNames))]
			tgt := m.Target(name)
			tgt.FlipBit(uint64(rng.Int63n(int64(tgt.BitCount()))))
		}
		m.Run(RunOptions{StopAtCycle: m.Cycle() + step/2, MaxCycles: snapTestMaxCycles})
		m.SyncRestore(snap)
		assertPredictorsRestored(t, round, m, snap)
	}

	// The cursor machine now resumes the golden run from its last
	// sync point; everything downstream must match the reference.
	var tail trace.Capture
	m.SetSink(&tail)
	prefix := int(m.Stats.Commits)
	m.Run(RunOptions{MaxCycles: snapTestMaxCycles})

	if m.Status() != ref.Status() || m.Crash() != ref.Crash() {
		t.Errorf("status %v/%v, want %v/%v", m.Status(), m.Crash(), ref.Status(), ref.Crash())
	}
	if m.Cycle() != ref.Cycle() {
		t.Errorf("final cycle %d, want %d", m.Cycle(), ref.Cycle())
	}
	if m.Stats != ref.Stats {
		t.Errorf("stats diverged:\n got %+v\nwant %+v", m.Stats, ref.Stats)
	}
	if !bytes.Equal(m.Output(), ref.Output()) {
		t.Errorf("output diverged (%d vs %d bytes)", len(m.Output()), len(ref.Output()))
	}
	for i, rec := range tail.Records {
		if !rec.Same(refTrace.Records[prefix+i]) {
			t.Fatalf("trace record %d differs:\n got %+v\nwant %+v",
				prefix+i, rec, refTrace.Records[prefix+i])
		}
	}
}

// predictorChurn builds a loop that keeps both predictor tables moving:
// eight leaf functions are each called from two sites per iteration, so
// every return's BTB entry alternates between two targets, and a branch
// taken on odd iterations only walks its bimodal counter up and down.
func predictorChurn(v isa.Variant) *asm.Program {
	const fns, iters = 8, 600
	b := asm.NewBuilder("predictor-churn", v)
	b.Li(4, iters)
	b.Li(5, 0)
	b.Label("loop")
	b.Andi(6, 5, 1)
	b.Beq(6, asm.Zero, "even")
	b.Addi(7, 7, 1)
	b.Label("even")
	for site := 0; site < 2; site++ {
		for f := 0; f < fns; f++ {
			b.Call(fmt.Sprintf("f%d", f))
		}
	}
	b.Addi(5, 5, 1)
	b.Blt(5, 4, "loop")
	b.Halt()
	for f := 0; f < fns; f++ {
		b.Label(fmt.Sprintf("f%d", f))
		b.Addi(8, 8, int32(f+1))
		b.Ret()
	}
	return b.MustAssemble()
}

// assertPredictorsRestored checks, entry by entry, that a rewound
// machine's bimodal and BTB tables equal the snapshot's. The end-to-end
// trace comparison alone can miss a stale predictor entry that the rest of
// the run happens not to consult.
func assertPredictorsRestored(t *testing.T, round int, m *Machine, s *Snapshot) {
	t.Helper()
	if len(m.bimodal) != len(s.m.bimodal) || len(m.btb) != len(s.m.btb) {
		t.Fatalf("round %d: predictor geometry %d/%d, snapshot %d/%d",
			round, len(m.bimodal), len(m.btb), len(s.m.bimodal), len(s.m.btb))
	}
	for i := range m.bimodal {
		if m.bimodal[i] != s.m.bimodal[i] {
			t.Fatalf("round %d: bimodal[%d] = %d after SyncRestore, snapshot has %d",
				round, i, m.bimodal[i], s.m.bimodal[i])
		}
	}
	for i := range m.btb {
		if m.btb[i] != s.m.btb[i] {
			t.Fatalf("round %d: btb[%d] = %#x after SyncRestore, snapshot has %#x",
				round, i, m.btb[i], s.m.btb[i])
		}
	}
}

// TestMachineSyncSnapshotGeometryGuards pins the misuse panics of the
// delta-sync pair: syncing without tracking, and syncing against a
// snapshot from a different machine geometry.
func TestMachineSyncSnapshotGeometryGuards(t *testing.T) {
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	m72 := New(ConfigA72(), w.Build(ConfigA72().Variant))
	snap := m72.Snapshot(nil)

	mustPanic := func(label string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", label)
			}
		}()
		f()
	}
	mustPanic("SyncSnapshot without tracking", func() { m72.SyncSnapshot(snap) })
	mustPanic("SyncRestore without tracking", func() { m72.SyncRestore(snap) })

	m15 := New(ConfigA15(), w.Build(ConfigA15().Variant))
	m15.BeginDeltaTracking()
	mustPanic("cross-geometry sync", func() { m15.SyncSnapshot(snap) })
}
