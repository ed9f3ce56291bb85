package campaign

import (
	"fmt"
	"io"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/obs"
	"avgi/internal/prog"
)

// referenceDifferential is the correctness bar of the campaign's fork
// machinery: every fault of a campaign run through the production path
// (the golden cursor, or the cluster clone on a multi-core runner) must
// equal Runner.Reference's result for it — every Result field with early
// exit off and, in ModeAVGI, every field except SimCycles with it on. It
// samples n faults per structure and returns the number of corruptions
// seen, so callers can check the comparison was not vacuous. Two workers
// keep the chunks long, so each cursor (or mother cluster) carries its
// state across several faults.
func referenceDifferential(t *testing.T, r *Runner, structures []string, n int, mode Mode, window uint64) int {
	t.Helper()
	corruptions := 0
	for _, structure := range structures {
		corruptions += checkAgainstReference(t, r, r.FaultList(structure, n, 7), mode, window, 2)
	}
	return corruptions
}

// checkAgainstReference runs faults as one campaign on the given number of
// workers and compares every result with Reference's, as described on
// referenceDifferential.
func checkAgainstReference(t *testing.T, r *Runner, faults []fault.Fault, mode Mode, window uint64, workers int) int {
	t.Helper()
	want := make([]Result, len(faults))
	for i, f := range faults {
		want[i] = r.Reference(f, mode, window)
	}
	for _, early := range []bool{false, true} {
		if early && mode != ModeAVGI {
			continue
		}
		r.EarlyExit = early
		got := r.Run(faults, mode, window, workers)
		for i := range got {
			g, w := got[i], want[i]
			if early {
				g, w = stripSimCycles(g), stripSimCycles(w)
			}
			if g != w {
				t.Fatalf("%v %s fault %d (early exit %v) diverged from Reference:\n  campaign  %+v\n  reference %+v",
					mode, faults[i].Structure, i, early, got[i], want[i])
			}
		}
	}
	r.EarlyExit = false
	return Summarize(want).Corruptions
}

// TestReferenceDifferential checks the cursor against Reference in
// exhaustive mode — the mode whose faulty runs go furthest past the fork,
// so any state the cursor's dirty-delta restore failed to rewind shows up
// in the final output — over all 12 structures on both machine variants.
func TestReferenceDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			r := newTestRunner(t, cfg, "sha")
			if referenceDifferential(t, r, cpu.StructureNames, n, ModeExhaustive, 0) == 0 {
				t.Error("no fault corrupted anything; the differential compared only benign runs")
			}
		})
	}
}

// TestReferenceDifferentialAVGIMode repeats the differential under the
// windowed AVGI mode, whose early stops (and convergence early exits) are
// the most timing-sensitive consumers of the restored state, and under HVF
// mode, whose stop-at-first-deviation exits mid-window.
func TestReferenceDifferentialAVGIMode(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			r := newTestRunner(t, cfg, "sha")
			for _, tc := range []struct {
				mode   Mode
				window uint64
			}{
				{ModeAVGI, 2000},
				{ModeHVF, 0},
			} {
				if referenceDifferential(t, r, cpu.StructureNames, n, tc.mode, tc.window) == 0 {
					t.Errorf("%v: no fault corrupted anything", tc.mode)
				}
			}
		})
	}
}

// TestReferenceDifferentialLargeSample keeps the fork differential's
// original sample sizes on the structures it has always covered: 256 RF
// and 256 L1D (Data) faults per config in exhaustive mode and 60 RF faults
// in AVGI and HVF mode, on 4 workers. Those chunks run 64 and 15 faults
// long, so state a cursor's dirty-delta restore leaks from one fault into
// the next has many later faults in which to show. The race detector
// makes this sample too slow for the race job, which runs the 12-structure
// sweeps above instead; this test runs in the plain test job.
func TestReferenceDifferentialLargeSample(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under the race detector; runs without -race")
	}
	perStructure := 256
	if testing.Short() {
		perStructure = 40
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			r := newTestRunner(t, cfg, "sha")
			corruptions := 0
			for _, structure := range []string{"RF", "L1D (Data)"} {
				corruptions += checkAgainstReference(t, r, r.FaultList(structure, perStructure, 7), ModeExhaustive, 0, 4)
			}
			corruptions += checkAgainstReference(t, r, r.FaultList("RF", 60, 3), ModeAVGI, 2000, 4)
			corruptions += checkAgainstReference(t, r, r.FaultList("RF", 60, 3), ModeHVF, 0, 4)
			if corruptions == 0 {
				t.Error("no fault corrupted anything; the differential compared only benign runs")
			}
		})
	}
}

// TestReferenceDifferentialCluster checks the 2-core cluster's clone fork
// against Reference in all three modes, injecting every structure, on
// alternating cores.
func TestReferenceDifferentialCluster(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 2
	}
	cfg := cpu.ConfigA72()
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunnerCores(cfg, w.Build(cfg.Variant), 2)
	if err != nil {
		t.Fatal(err)
	}
	var structures []string
	for i, s := range cpu.StructureNames {
		structures = append(structures, fmt.Sprintf("c%d/%s", i%2, s))
	}
	corruptions := referenceDifferential(t, r, structures, n, ModeExhaustive, 0)
	corruptions += referenceDifferential(t, r, structures, n, ModeHVF, 0)
	corruptions += referenceDifferential(t, r, structures, n, ModeAVGI, 2000)
	if corruptions == 0 {
		t.Error("no cluster fault corrupted anything")
	}
}

// TestForkCursorResumeDifferential proves the cursor path stays equal to
// Reference across a journal-style resume: prior results covering a whole
// chunk, chunk heads and scattered mid-chunk faults are handed to
// RunBudgetResume, so cursor workers skip arbitrary faults inside their
// chunks, and every freshly simulated result must still equal Reference.
func TestForkCursorResumeDifferential(t *testing.T) {
	r := shaRunner(t)
	faults := r.FaultList("RF", 64, 11)
	want := make([]Result, len(faults))
	for i, f := range faults {
		want[i] = r.Reference(f, ModeAVGI, 2000)
	}
	// 64 faults / 4 workers = 16-fault chunks: indices 0-15 cover chunk 0
	// entirely (the allPrior fast path); i%5 scatters holes through the
	// remaining chunks.
	prior := make(map[int]Result)
	for i := range faults {
		if i < 16 || i%5 == 0 {
			prior[i] = want[i]
		}
	}
	resumed := r.RunBudgetResume(faults, ModeAVGI, 2000, NewBudget(4), prior, nil)
	for i := range resumed {
		if resumed[i] != want[i] {
			t.Fatalf("fault %d diverged after resume: %+v vs Reference %+v", i, resumed[i], want[i])
		}
	}
}

// livelockSrc counts to a bound held in a register: corrupting the bound
// upward makes the loop effectively infinite, which is exactly the hang
// class the runaway guard exists for.
const livelockSrc = `
	li r1, 0
	li r2, 64
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	li r7, 0x40000
	storew r1, 0(r7)
	li r8, 0x3FFF8
	li r9, 8
	storew r9, 0(r8)
	halt
`

// TestRunawayLivelockTerminates proves the runaway guard bounds faulty
// runs: a register-file flip that raises the loop bound to ~2^62 livelocks
// the program, and the campaign still terminates, classifying the run as a
// crash after exactly RunawayLimit cycles.
func TestRunawayLivelockTerminates(t *testing.T) {
	cfg := cpu.ConfigA72()
	p, err := asm.Parse("livelock", livelockSrc, cfg.Variant)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	// Renaming decides which physical register holds the loop bound, so
	// sweep all of them, flipping a high-but-positive value bit. The
	// injection cycle matters too — the early cycles are cold-start fetch
	// misses with nothing renamed yet — so sweep several points across
	// the back half of the run, where the loop is in flight. Whichever
	// (cycle, register) combinations catch the live bound make it ~2^62,
	// and that run can only end via the runaway guard.
	width := r.BitCounts["RF"] / uint64(cfg.PhysRegs)
	var faults []fault.Fault
	for i, frac := range []uint64{2, 4, 8, 16} {
		cycle := r.Golden.Cycles - r.Golden.Cycles/frac
		for reg := 0; reg < cfg.PhysRegs; reg++ {
			faults = append(faults, fault.Fault{
				ID:        i*cfg.PhysRegs + reg,
				Structure: "RF",
				Bit:       uint64(reg)*width + width - 2,
				Cycle:     cycle,
			})
		}
	}
	results := r.Run(faults, ModeExhaustive, 0, 4)

	livelocked := 0
	for _, res := range results {
		budget := r.RunawayLimit() - res.Fault.Cycle
		if res.SimCycles > budget {
			t.Fatalf("fault %d ran %d cycles, past its %d budget", res.Fault.ID, res.SimCycles, budget)
		}
		if res.SimCycles == budget {
			livelocked++
			if res.Effect != imm.Crash {
				t.Errorf("runaway run classified %v, want crash", res.Effect)
			}
		}
	}
	if livelocked == 0 {
		t.Fatal("no fault livelocked; the guard was never exercised")
	}
}

func TestRunawayLimit(t *testing.T) {
	r := &Runner{Golden: Golden{Cycles: 1000}}
	if got := r.RunawayLimit(); got != 1000*DefaultRunawayFactor+RunawayGraceCycles {
		t.Errorf("default limit = %d", got)
	}
	r.RunawayFactor = 5
	if got := r.RunawayLimit(); got != 5000+RunawayGraceCycles {
		t.Errorf("factor-5 limit = %d", got)
	}
}

func TestAssertTemporalRejectsOutOfPopulation(t *testing.T) {
	r := &Runner{Golden: Golden{Cycles: 100}}
	for _, bad := range []uint64{0, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cycle %d outside [1, 100] not rejected", bad)
				}
			}()
			r.assertTemporal([]fault.Fault{{ID: 1, Structure: "RF", Cycle: bad}})
		}()
	}
	// The boundary cycles are part of the population.
	r.assertTemporal([]fault.Fault{{Cycle: 1}, {Cycle: 100}})
}

func TestCheckpointIntervalConfig(t *testing.T) {
	r := shaRunner(t)
	r.CheckpointInterval = 2000
	faults := r.FaultList("RF", 8, 1)
	r.Run(faults, ModeHVF, 0, 2)
	if r.store == nil || r.store.Interval() != 2000 {
		t.Fatalf("store interval = %v, want 2000", r.store.Interval())
	}
	want := int(r.Golden.Cycles/2000) + 1
	if r.store.Count() != want {
		t.Errorf("checkpoints = %d, want %d", r.store.Count(), want)
	}
}

// TestCkptMetricsPublished drives an observed cursor campaign and checks
// the checkpoint and cursor telemetry lands in the registry.
func TestCkptMetricsPublished(t *testing.T) {
	r := shaRunner(t)
	r.Obs = obs.New(io.Discard)

	const n = 32
	faults := r.FaultList("RF", n, 1)
	r.Run(faults, ModeExhaustive, 0, 4)

	lb := map[string]string{"structure": "RF", "workload": "sha", "mode": "exhaustive"}
	counter := func(name string) uint64 { return r.Obs.Metrics.Counter(name, "", lb).Value() }
	// Every cursor fault rewinds to its fault-point snapshot once.
	if got := counter("avgi_ckpt_restores_total"); got != n {
		t.Errorf("restores_total = %d, want %d", got, n)
	}
	if got := counter("avgi_ckpt_cow_pages_total"); got == 0 {
		t.Error("cow_pages_total = 0; faulty runs never privatized a page")
	}
	// Each of the 4 workers builds its cursor once and pays one full
	// local capture; the advance never passes the last fault's cycle.
	if got := counter("avgi_cursor_full_syncs_total"); got != 4 {
		t.Errorf("cursor_full_syncs_total = %d, want 4", got)
	}
	if got := counter("avgi_cursor_advance_cycles_total"); got == 0 || got > faults[n-1].Cycle {
		t.Errorf("cursor_advance_cycles_total = %d, want in (0, %d]", got, faults[n-1].Cycle)
	}
	if got := counter("avgi_cursor_delta_bytes_total"); got == 0 {
		t.Error("cursor_delta_bytes_total = 0")
	}

	pl := map[string]string{"workload": "sha", "mode": "exhaustive"}
	if gets := r.Obs.Metrics.Counter("avgi_ckpt_pool_gets_total", "", pl).Value(); gets != 4 {
		t.Errorf("pool_gets_total = %d, want one per worker (4)", gets)
	}

	gl := map[string]string{"workload": "sha", "machine": r.Cfg.Name}
	if v := r.Obs.Metrics.Gauge("avgi_ckpt_checkpoints", "", gl).Value(); int(v) != r.store.Count() {
		t.Errorf("checkpoints gauge = %v, want %d", v, r.store.Count())
	}
	if v := r.Obs.Metrics.Gauge("avgi_ckpt_snapshot_bytes", "", gl).Value(); uint64(v) != r.store.Bytes() {
		t.Errorf("snapshot_bytes gauge = %v, want %d", v, r.store.Bytes())
	}
	if v := r.Obs.Metrics.Gauge("avgi_ckpt_interval_cycles", "", gl).Value(); uint64(v) != r.store.Interval() {
		t.Errorf("interval_cycles gauge = %v, want %d", v, r.store.Interval())
	}

	// Pool reuse across campaigns: a later Run on the same runner checks
	// machines back out of the pool. sync.Pool may drop any Put (under the
	// race detector it drops a quarter of them on purpose), so allow a few
	// campaigns for one recycled checkout.
	reuse := r.Obs.Metrics.Counter("avgi_ckpt_pool_reuse_total", "", pl)
	for i := 0; i < 4 && reuse.Value() == 0; i++ {
		r.Run(faults, ModeExhaustive, 0, 4)
	}
	if reuse.Value() == 0 {
		t.Error("pool_reuse_total = 0 after four more campaigns")
	}
}
