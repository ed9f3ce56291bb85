package cpu

import (
	"fmt"

	"avgi/internal/asm"
	"avgi/internal/mem"
	"avgi/internal/trace"
)

// Cluster is a multi-core machine: n cores with private L1s and TLBs over a
// shared L2 and RAM (see mem.SharedMem), each running its own copy of the
// program in its own physical window. The cores step in index order every
// cycle, so same-cycle activity at the shared L2 arbitrates
// deterministically: core 0 always accesses shared state before core 1
// within a cycle.
//
// It exists to let faults propagate across cores through the shared L2 (a
// flip in c0's window can be written back where c1's output DMA reads it).
type Cluster struct {
	Cfg    Config
	Prog   *asm.Program
	Shared *mem.SharedMem

	cores []*Machine
	cycle uint64
}

// NewCluster builds an n-core cluster for cfg and loads the program into
// every core's window.
func NewCluster(cfg Config, prog *asm.Program, n int) *Cluster {
	shared := mem.NewSharedMem(cfg.Mem, n)
	cl := &Cluster{Cfg: cfg, Prog: prog, Shared: shared}
	for k := 0; k < n; k++ {
		cl.cores = append(cl.cores, NewWithMem(cfg, prog, shared.CoreHierarchy(k)))
	}
	return cl
}

// Cores returns the number of cores.
func (cl *Cluster) Cores() int { return len(cl.cores) }

// Core returns core k.
func (cl *Cluster) Core(k int) *Machine { return cl.cores[k] }

// Cycle returns the cluster clock (cycles executed by Run; a halted core's
// private counter freezes while the cluster clock keeps running).
func (cl *Cluster) Cycle() uint64 { return cl.cycle }

// SetSink installs a commit-trace sink on core k.
func (cl *Cluster) SetSink(k int, s trace.Sink) { cl.cores[k].SetSink(s) }

// Status aggregates the per-core lifecycle states: any crashed core crashes
// the cluster (shared memory makes its state suspect everywhere), any
// sink-stopped core stops it (the observer has seen what it needs), and the
// cluster halts only when every core has halted.
func (cl *Cluster) Status() Status {
	halted := 0
	for _, m := range cl.cores {
		switch m.status {
		case StatusCrashed:
			return StatusCrashed
		case StatusStopped:
			return StatusStopped
		case StatusCycleLimit:
			return StatusCycleLimit
		case StatusHalted:
			halted++
		}
	}
	if halted == len(cl.cores) {
		return StatusHalted
	}
	return StatusRunning
}

// Crash returns the crash kind of the first crashed core (index order), or
// CrashNone.
func (cl *Cluster) Crash() CrashKind {
	for _, m := range cl.cores {
		if m.status == StatusCrashed {
			return m.crash
		}
	}
	return CrashNone
}

// Output concatenates the drained outputs of halted cores in index order —
// the cluster's observable result. A fault that crosses cores through the
// shared L2 shows up as a change in another core's section.
func (cl *Cluster) Output() []byte {
	var out []byte
	for _, m := range cl.cores {
		out = append(out, m.output...)
	}
	return out
}

// Commits sums committed instructions across cores.
func (cl *Cluster) Commits() uint64 {
	var n uint64
	for _, m := range cl.cores {
		n += m.Stats.Commits
	}
	return n
}

// Run advances the cluster until it halts, crashes, is stopped by a sink,
// or exhausts the cycle budget. Every cycle steps the cores in index order.
func (cl *Cluster) Run(opts RunOptions) Result {
	max := opts.MaxCycles
	if max == 0 {
		max = 100_000_000
	}
	status := cl.Status()
	for status == StatusRunning {
		if cl.cycle >= max {
			status = StatusCycleLimit
			break
		}
		if opts.StopAtCycle > 0 && cl.cycle >= opts.StopAtCycle {
			break
		}
		for _, m := range cl.cores {
			m.Step()
		}
		cl.cycle++
		status = cl.Status()
	}
	return Result{
		Status:  status,
		Crash:   cl.Crash(),
		Cycles:  cl.cycle,
		Commits: cl.Commits(),
		Output:  cl.Output(),
	}
}

// Clone deep-copies the whole cluster: the shared memory spine is cloned
// once and every core is rebound onto it.
func (cl *Cluster) Clone() *Cluster {
	c := &Cluster{Cfg: cl.Cfg, Prog: cl.Prog, cycle: cl.cycle}
	c.Shared = cl.Shared.Clone()
	for k, m := range cl.cores {
		cm := m.cloneCore()
		cm.Mem = c.Shared.CoreHierarchy(k)
		c.cores = append(c.cores, cm)
	}
	return c
}

// Targets returns every core's fault-injectable structures keyed by
// prefixed name ("c0/RF", "c1/L2 (Tag)", ...). The shared L2's arrays
// appear under every core's prefix — there is one physical L2, so
// "c0/L2 (Tag)" and "c1/L2 (Tag)" name the same bits.
func (cl *Cluster) Targets() map[string]Target {
	out := make(map[string]Target, 12*len(cl.cores))
	for k, m := range cl.cores {
		for name, t := range m.Targets() {
			out[fmt.Sprintf("c%d/%s", k, name)] = t
		}
	}
	return out
}

// Target resolves one prefixed structure name ("c1/RF"), or nil if the
// prefix or structure is unknown.
func (cl *Cluster) Target(name string) Target {
	k, base, ok := SplitCoreTarget(name)
	if !ok || k >= len(cl.cores) {
		return nil
	}
	return cl.cores[k].Target(base)
}
