package main

import (
	"io"
	"sync"
	"time"

	"avgi"
)

// env is the state of one run.
type env struct {
	opts options
	sz   sizes
	cfg  avgi.MachineConfig
	tmp  string    // private temporary directory, removed at exit
	logw io.Writer // progress lines (standard output)
	tr   *tracer   // nil in an untraced run
	rep  *report
	lat  latencies
}

// latencies collects request latencies in ms, split by whether the request
// was answered without simulation (hit) or had to simulate (miss).
type latencies struct {
	mu        sync.Mutex
	hit, miss []float64
}

func (l *latencies) add(hit bool, d time.Duration) {
	l.mu.Lock()
	if hit {
		l.hit = append(l.hit, ms(d))
	} else {
		l.miss = append(l.miss, ms(d))
	}
	l.mu.Unlock()
}

// pair is one (structure, program) campaign of a grid.
type pair struct{ structure, program string }

// pairs returns the grid over every structure and the given programs, in
// Table II structure order.
func pairs(programs []string) []pair {
	var ps []pair
	for _, s := range avgi.Structures() {
		for _, p := range programs {
			ps = append(ps, pair{s, p})
		}
	}
	return ps
}

func workloadsOf(names []string) []avgi.Workload {
	ws := make([]avgi.Workload, 0, len(names))
	for _, n := range names {
		w, err := avgi.WorkloadByName(n)
		if err != nil {
			panic(err) // the benchmark names only registered workloads
		}
		ws = append(ws, w)
	}
	return ws
}

// setups runs setup at least sz.setups times and until sz.setupFloor of
// set-up time is spent (once in a traced run), timing each, and reports
// the median as setup_s. A cheap set-up is thus repeated more often: short
// intervals on a shared host are the noisiest. verify runs after each
// set-up, outside the timed region.
func (e *env) setups(setup func(k int) error, verify func(k int)) error {
	n, floor := e.sz.setups, e.sz.setupFloor
	if e.tr != nil {
		n, floor = 1, 0
	}
	var ts []float64
	var total time.Duration
	for k := 0; k < n || total < floor; k++ {
		sp := e.tr.begin("bench.setup", 0, k)
		t0 := time.Now()
		err := setup(k)
		d := time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		ts = append(ts, d.Seconds())
		total += d
		if verify != nil {
			verify(k)
		}
	}
	e.rep.values["setup_s"] = median(ts)
	return nil
}

// grid asks every pair at once, one goroutine each, as Study.Prefetch
// does, and records each ask's latency as a miss.
func (e *env) grid(tr *tracer, ps []pair, parent, req int, name string, ask func(p pair, span int)) {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("sched."+name, parent, req)
			t0 := time.Now()
			ask(p, sp)
			e.lat.add(false, time.Since(t0))
			tr.end(sp)
		}()
	}
	wg.Wait()
}

// hits re-reads the whole grid sz.hitRounds times, as every report over
// a finished grid does; each read is one request, answered from results
// the Study already holds.
func (e *env) hits(tr *tracer, ps []pair, parent, req int, name string, ask func(p pair, span int)) {
	for r := 0; r < e.sz.hitRounds; r++ {
		sp := tr.begin("memo."+name, parent, req)
		t0 := time.Now()
		for _, p := range ps {
			ask(p, sp)
		}
		e.lat.add(true, time.Since(t0))
		tr.end(sp)
	}
}

// iterOut is what one iteration of train or assess did.
type iterOut struct {
	wall      time.Duration
	requests  int
	campaigns []campaignOut
}

// loopOut aggregates the measured iterations.
type loopOut struct {
	wall                time.Duration
	cpu                 time.Duration
	tally               tally // of the last iteration
	faults, quarantined int
	// Per-iteration rates; a run reports their medians.
	faultRate, cycleRate, reqRate []float64
	tracedWall                    []float64 // iteration seconds with spans on
	untracedWall                  []float64
	spanFrom, spanTo              int
}

// iterations runs iterate until --seconds of measured time are used (and
// at least minIters times). In a traced run odd iterations record spans
// and even ones do not, so the gap between them is the tracing overhead.
// Every iteration must produce the same results digest.
func (e *env) iterations(iterate func(i int, tr *tracer) (iterOut, error)) (loopOut, error) {
	var lo loopOut
	var digests []uint64
	lo.spanFrom = e.tr.mark()
	cpu0, _ := rusage()
	limit := time.Duration(e.opts.seconds * float64(time.Second))
	for i := 0; i < minIters || lo.wall < limit; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		out, err := iterate(i, tr)
		if err != nil {
			return lo, err
		}
		t := tallyOf(out.campaigns)
		digests = append(digests, t.digest)
		secs := out.wall.Seconds()
		lo.wall += out.wall
		lo.faults += t.faults
		lo.quarantined += t.quarantined
		lo.faultRate = append(lo.faultRate, float64(t.faults)/secs)
		lo.cycleRate = append(lo.cycleRate, float64(t.simCycles)/secs)
		lo.reqRate = append(lo.reqRate, float64(out.requests)/secs)
		lo.tally = t
		if tr != nil {
			lo.tracedWall = append(lo.tracedWall, out.wall.Seconds())
		} else {
			lo.untracedWall = append(lo.untracedWall, out.wall.Seconds())
		}
	}
	cpu1, _ := rusage()
	lo.cpu = cpu1 - cpu0
	lo.spanTo = e.tr.mark()
	e.rep.check(checkDigests("iteration", digests))
	e.rep.exact = lo.tally
	e.rep.attempted = int64(lo.faults)
	e.rep.failed = int64(lo.quarantined)
	return lo, nil
}

// finishLoop turns a train or assess loop into the end-to-end metrics (or,
// traced, the loop's per-layer ones). Throughputs are medians over
// iterations, so a slow spell on a shared host moves them less.
func (e *env) finishLoop(lo loopOut) {
	v := e.rep.values
	v["faults_per_s"] = median(lo.faultRate)
	v["sim_cycles_per_s"] = median(lo.cycleRate)
	v["req_per_s"] = median(lo.reqRate)
	e.latencyMetrics()
	v["sched.cpu_util"] = lo.cpu.Seconds() / (lo.wall.Seconds() * workers)
	if e.tr != nil && len(lo.tracedWall) > 0 && len(lo.untracedWall) > 0 {
		v["trace.overhead_frac"] = median(lo.tracedWall)/median(lo.untracedWall) - 1
	}
	e.selfShares(lo.spanFrom, lo.spanTo)
}

func (e *env) latencyMetrics() {
	v := e.rep.values
	v["hit_p50_ms"] = quantile(e.lat.hit, 0.50)
	v["hit_p95_ms"] = quantile(e.lat.hit, 0.95)
	v["miss_p50_ms"] = quantile(e.lat.miss, 0.50)
	v["miss_p90_ms"] = quantile(e.lat.miss, 0.90)
	_, rss := rusage()
	v["max_rss_mb"] = rss
}

// selfShares reports each layer's share of the loop's self time.
func (e *env) selfShares(from, to int) {
	shares := e.tr.selfShares(from, to)
	for _, l := range selfLayers {
		e.rep.values["trace.self_share."+l] = shares[l]
	}
}

// zeroLayers sets every per-layer metric the workload has not measured to
// 0: a layer it does not exercise does no work.
func (e *env) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := e.rep.values[d.name]; !ok {
			e.rep.values[d.name] = 0
		}
	}
}

// goldenOf returns the golden cycles of the named programs' runners.
func goldenOf(runner func(string) *avgi.Runner, programs []string) map[string]uint64 {
	out := make(map[string]uint64, len(programs))
	for _, p := range programs {
		out[p] = runner(p).Golden.Cycles
	}
	return out
}
