package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"avgi"
	"avgi/internal/campaign"
	"avgi/internal/ckpt"
	"avgi/internal/journal"
)

// ladderSpec is the campaign shape a workload's per-layer probes repeat:
// its programs, mode, sample size and seed, and its AVGI windows.
type ladderSpec struct {
	programs  []string
	mode      avgi.Mode
	faults    int
	seed      int64
	earlyExit bool
	// window returns the AVGI window of a structure on a program of the
	// given golden length; nil outside ModeAVGI.
	window func(structure string, goldenCycles uint64) uint64
}

// ladderCampaign is one timed Runner.Run of the ladder.
type ladderCampaign struct {
	campaignOut
	runner *avgi.Runner
	window uint64
}

// ladder runs the per-layer probes of a traced run, each timed from the
// outside around one layer's public call: golden runs (cpu), NewRunner and
// ckpt.Record, one Runner.Run per (structure, program) of the workload
// (campaign), and the journal's Writer and Load (journal).
func (e *env) ladder(spec ladderSpec) error {
	cps, err := e.cpuProbe()
	if err != nil {
		return err
	}
	cs, err := e.campaignProbe(spec, cps)
	if err != nil {
		return err
	}
	if err := e.journalProbe(spec, cs); err != nil {
		return err
	}
	e.zeroLayers()
	return nil
}

// cpuProbe times Machine.Run over every probe program and returns the
// golden simulation rate in cycles per second.
func (e *env) cpuProbe() (float64, error) {
	v := e.rep.values
	var cycles, mallocs, bytes uint64
	var dur time.Duration
	var before, after runtime.MemStats
	for r := 0; r < e.sz.probeRepeats; r++ {
		for _, p := range probePrograms {
			m, err := avgi.NewMachine(e.cfg, p)
			if err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&before)
			sp := e.tr.begin("ladder.cpu_run", 0, r)
			t0 := time.Now()
			res := m.Run(avgi.RunOptions{})
			d := time.Since(t0)
			e.tr.end(sp)
			runtime.ReadMemStats(&after)
			e.rep.check(checkOutput(e.cfg, p, res.Output))
			cycles += res.Cycles
			dur += d
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			v["cpu.golden_cycles."+p] = float64(res.Cycles)
		}
	}
	kcycles := float64(cycles) / 1000
	cps := float64(cycles) / dur.Seconds()
	v["cpu.golden_cycles_per_s"] = cps
	v["cpu.allocs_per_kcycle"] = float64(mallocs) / kcycles
	v["cpu.alloc_kb_per_kcycle"] = float64(bytes) / 1024 / kcycles
	return cps, nil
}

// campaignProbe builds a runner per program (timing NewRunner and
// ckpt.Record) and runs each (structure, program) campaign alone under
// Runner.Run, timed and with its allocations counted.
func (e *env) campaignProbe(spec ladderSpec, goldenCPS float64) ([]ladderCampaign, error) {
	v := e.rep.values
	structures := avgi.Structures()
	wall := make(map[string]time.Duration)
	nfaults := make(map[string]int)
	sim := make(map[string]uint64)
	var totalWall, newRunner, record time.Duration
	var totalFaults int
	var totalSim, totalWindow, mallocs, bytes uint64
	var before, after runtime.MemStats
	var out []ladderCampaign
	for _, p := range spec.programs {
		sp := e.tr.begin("ladder.new_runner", 0, 0)
		t0 := time.Now()
		r, err := avgi.NewRunner(e.cfg, p)
		newRunner += time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.Obs = avgi.NewObserver(nil)
		r.EarlyExit = spec.earlyExit

		sp = e.tr.begin("ladder.ckpt_record", 0, 0)
		t0 = time.Now()
		ckpt.Record(r.Cfg, r.Prog, r.Golden.Cycles, r.CheckpointInterval)
		record += time.Since(t0)
		e.tr.end(sp)

		windowOf := func(s string) uint64 {
			if spec.window == nil {
				return 0
			}
			return spec.window(s, r.Golden.Cycles)
		}
		// The runner records its own checkpoints on its first Run; keep
		// that out of the first structure's timing.
		r.Run(r.FaultList(structures[0], 1, spec.seed), spec.mode, windowOf(structures[0]), workers)

		for _, s := range structures {
			faults := r.FaultList(s, spec.faults, spec.seed)
			window := windowOf(s)
			runtime.ReadMemStats(&before)
			sp := e.tr.begin("ladder.campaign_run", 0, 0)
			t0 := time.Now()
			res := r.Run(faults, spec.mode, window, workers)
			d := time.Since(t0)
			e.tr.end(sp)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			wall[s] += d
			totalWall += d
			nfaults[s] += len(faults)
			totalFaults += len(faults)
			for i, f := range faults {
				sim[s] += res[i].SimCycles
				if spec.mode == avgi.ModeAVGI {
					totalWindow += window
				} else {
					totalWindow += r.Golden.Cycles - f.Cycle + 1
				}
			}
			out = append(out, ladderCampaign{campaignOut{s, p, res}, r, window})
		}
	}
	for _, s := range structures {
		m := "campaign." + structMetric(s)
		v[m+".us_per_fault"] = float64(wall[s].Nanoseconds()) / 1e3 / float64(nfaults[s])
		v[m+".sim_cycles_per_fault"] = float64(sim[s]) / float64(nfaults[s])
		totalSim += sim[s]
	}
	n := float64(totalFaults)
	// Host time per fault not explained by simulating its cycles at the
	// golden rate: cursor advance, restore, compare and classify.
	v["campaign.fork_us_per_fault"] = float64(totalWall.Nanoseconds())/1e3*workers/n -
		float64(totalSim)/n/goldenCPS*1e6
	v["campaign.window_fill"] = float64(totalSim) / float64(totalWindow)
	v["campaign.allocs_per_fault"] = float64(mallocs) / n
	v["campaign.alloc_kb_per_fault"] = float64(bytes) / 1024 / n
	v["campaign.new_runner_ms"] = ms(newRunner) / float64(len(spec.programs))
	v["ckpt.record_ms"] = ms(record) / float64(len(spec.programs))
	return out, nil
}

// journalProbe writes every ladder campaign through a journal Writer under
// the default fsync policy (one fsync per chunk), reads it back with Load
// and requires the same results.
func (e *env) journalProbe(spec ladderSpec, cs []ladderCampaign) error {
	dir := filepath.Join(e.tmp, "journal-probe")
	j, err := journal.Open(dir)
	if err != nil {
		return err
	}
	var appendDur, loadDur time.Duration
	var n int
	for _, c := range cs {
		key := journal.Key{Structure: c.structure, Workload: c.program, Mode: spec.mode.String(), Window: c.window}
		bind := journal.Binding{
			Machine: e.cfg.Name, Variant: e.cfg.Variant.String(),
			ProgramHash: journal.HashProgram(c.runner.Prog), Seed: spec.seed, Faults: len(c.results),
		}
		sp := e.tr.begin("ladder.journal_append", 0, 0)
		t0 := time.Now()
		w, err := j.Writer(key, bind, false)
		if err != nil {
			return err
		}
		chunk := campaign.ChunkSize(len(c.results), workers)
		for lo := 0; lo < len(c.results); lo += chunk {
			for i := lo; i < min(lo+chunk, len(c.results)); i++ {
				w.Append(i, c.results[i])
			}
			if err := w.Sync(); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		appendDur += time.Since(t0)
		e.tr.end(sp)

		sp = e.tr.begin("ladder.journal_load", 0, 0)
		t0 = time.Now()
		got, err := j.Load(key, bind)
		loadDur += time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		for i, want := range c.results {
			if !reflect.DeepEqual(got[i], want) {
				e.rep.check(fmt.Errorf("journal: %s/%s fault %d reads back as %+v, wrote %+v",
					c.structure, c.program, i, got[i], want))
				break
			}
		}
		n += len(c.results)
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	v := e.rep.values
	v["journal.append_us_per_fault"] = float64(appendDur.Nanoseconds()) / 1e3 / float64(n)
	v["journal.load_ms_per_kfault"] = ms(loadDur) / float64(n) * 1000
	v["journal.bytes_per_fault"] = float64(size) / float64(n)
	return nil
}
