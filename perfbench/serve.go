package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"avgi"
)

var servePrograms = []string{"crc32", "stringsearch"}

// The repository holds no record of real avgid traffic, so the shape of
// serve's mix below is assumed, not measured; perfbench/README.md gives
// the reason for each number.
const (
	// novelEvery makes every novelEvery-th request of a client (1 in 20,
	// 5%) pose a key never asked before: a write, which simulates and
	// appends to the journal. The two clients are offset by half a period.
	// See novelKey. Assumed.
	novelEvery = 20
	// zipfS skews the repeats toward a few hot keys. Assumed.
	zipfS = 1.2
	// serveCap stops a client that has not made its requests by serveCap
	// times --seconds, so a much slower program still ends in time.
	serveCap = 3
)

// serveKey is one distinct assessment a client can ask for.
type serveKey struct {
	structure, program string
	seed               int64
	window             uint64 // the estimator's ERT window for the pair
}

func (k serveKey) request(tenant string, faults int) avgi.AssessRequest {
	return avgi.AssessRequest{
		Machine: "a72", Structure: k.structure, Workload: k.program, Mode: "avgi",
		Window: k.window, Faults: faults, Seed: k.seed, Tenant: tenant,
	}
}

// serveWindows resolves each serve pair's AVGI window the way cmd/avgi
// does, from the trained estimator and the program's golden length.
func serveWindows(est *avgi.Estimator, golden map[string]uint64) map[pair]uint64 {
	w := make(map[pair]uint64)
	for _, p := range pairs(servePrograms) {
		w[p] = est.WindowFor(p.structure, golden[p.program])
	}
	return w
}

// warmKeys is the key space set-up warms: more keys than the service's
// 64-entry shard cache holds, so repeats hit both the memory and the
// journal tier.
func (e *env) warmKeys(windows map[pair]uint64) []serveKey {
	var ks []serveKey
	for j := 0; j < e.sz.serveSeeds; j++ {
		for _, p := range pairs(servePrograms) {
			ks = append(ks, serveKey{p.structure, p.program, e.opts.seed*1000 + int64(j), windows[p]})
		}
	}
	return ks
}

// novelKey is client c's n-th never-warmed key. Every fourth one is shared:
// both clients pose it at about the same time, so the flight map
// coalesces them. The rest are the client's own, so the two clients
// simulate side by side; if every novel key were shared, the clients would
// fall into lockstep, one waiting while the other simulates. The keys
// cycle through every structure, two on stringsearch for each on crc32: a
// miss's cost is set by its program's length (the cursor advances through
// the whole golden run) and by its structure's window, so a fixed mix
// keeps the miss percentiles from depending on the seed.
func (e *env) novelKey(c, n int, windows map[pair]uint64) serveKey {
	id := 2*n + c
	if n%4 == 3 {
		id = 2 * n
	}
	structures := avgi.Structures()
	p := pair{structures[n%len(structures)], "stringsearch"}
	if (n/len(structures))%3 == 2 {
		p.program = "crc32"
	}
	return serveKey{
		structure: p.structure,
		program:   p.program,
		seed:      e.opts.seed*1000 + 500 + int64(id), // warm seeds stay below +500
		window:    windows[p],
	}
}

// served is one response kept for the hit/miss payload check.
type served struct {
	key  serveKey
	resp *avgi.AssessResponse
}

// clientOut is what one closed-loop client did.
type clientOut struct {
	requests, errors, quarantined int
	faults                        int // simulated
	simCycles                     uint64
	hit, miss                     []float64 // ms
	tracedHit, untracedHit        []float64
	kept                          []served
}

// runServe measures the assessment service: set-up warms a fresh service
// over a temporary journal; then two closed-loop clients, one tenant
// each, pose a seeded mix of Zipf repeats and novel keys.
func runServe(e *env) error {
	// The golden lengths the AVGI windows scale with; the outputs are
	// checked here, outside the timed set-up.
	golden, err := checkGolden(e.cfg, servePrograms)
	e.rep.check(err)
	e.rep.golden = golden

	var est *avgi.Estimator
	var estStudy *avgi.Study
	var windows map[pair]uint64
	var keys []serveKey
	var svc *avgi.Service
	var svcObs *avgi.Observer
	var warm []*avgi.AssessResponse
	var digests, estDigests []uint64
	var warmTally tally
	err = e.setups(func(k int) error {
		// Set-up: train the estimator, as assess does, for the windows;
		// then build the service and warm it.
		var err error
		est, estStudy, err = e.trainEstimator()
		if err != nil {
			return err
		}
		windows = serveWindows(est, golden)
		keys = e.warmKeys(windows)
		dir := filepath.Join(e.tmp, fmt.Sprintf("journal-%d", k))
		svcObs = avgi.NewObserver(nil)
		svc, err = avgi.NewService(avgi.ServiceConfig{Workers: workers, JournalDir: dir, Obs: svcObs})
		if err != nil {
			return err
		}
		warm = make([]*avgi.AssessResponse, len(keys))
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(keys); i += workers {
					warm[i], errs[c] = svc.Assess(keys[i].request(tenant(c), e.sz.serveFaults))
					if errs[c] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}, func(k int) {
		if k > 0 {
			os.RemoveAll(filepath.Join(e.tmp, fmt.Sprintf("journal-%d", k-1)))
		}
		estDigests = append(estDigests, trainingDigest(estStudy))
		var cs []campaignOut
		for i, key := range keys {
			cs = append(cs, campaignOut{key.structure, key.program, warm[i].Result.Results})
		}
		warmTally = tallyOf(cs)
		digests = append(digests, warmTally.digest)
	})
	if err != nil {
		return err
	}
	e.rep.check(checkDigests("training set-up", estDigests))
	e.rep.check(checkDigests("set-up", digests))
	e.rep.exact = warmTally

	// The payload every later answer for a key must repeat byte for byte.
	payload := make(map[serveKey][]byte, len(keys))
	for i, k := range keys {
		payload[k] = mustMarshal(warm[i].Result)
	}

	before := serverCounts(svcObs)
	perm := rand.New(rand.NewSource(e.opts.seed)).Perm(len(keys))
	outs := make([]clientOut, workers)
	spanFrom := e.tr.mark()
	cpu0, _ := rusage()
	n := max(e.sz.minRequests, int(e.opts.seconds*e.sz.serveRate))
	start := time.Now()
	deadline := start.Add(time.Duration(serveCap * e.opts.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = e.serveClient(svc, c, n, keys, windows, perm, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for c, o := range outs {
		if o.requests < n {
			fmt.Fprintf(e.logw, "serve: client %d reached the %gx time cap after %d of %d requests\n",
				c, float64(serveCap), o.requests, n)
		}
	}
	cpu1, _ := rusage()
	after := serverCounts(svcObs)

	var total clientOut
	for _, o := range outs {
		total.requests += o.requests
		total.errors += o.errors
		total.quarantined += o.quarantined
		total.faults += o.faults
		total.simCycles += o.simCycles
		total.tracedHit = append(total.tracedHit, o.tracedHit...)
		total.untracedHit = append(total.untracedHit, o.untracedHit...)
		total.kept = append(total.kept, o.kept...)
		e.lat.hit = append(e.lat.hit, o.hit...)
		e.lat.miss = append(e.lat.miss, o.miss...)
	}
	e.rep.attempted = int64(total.requests)
	e.rep.failed = int64(total.errors + total.quarantined)
	e.checkPayloads(payload, total.kept)

	v := e.rep.values
	v["faults_per_s"] = float64(total.faults) / wall.Seconds()
	v["sim_cycles_per_s"] = float64(total.simCycles) / wall.Seconds()
	v["req_per_s"] = float64(total.requests) / wall.Seconds()
	e.latencyMetrics()
	v["sched.cpu_util"] = (cpu1 - cpu0).Seconds() / (wall.Seconds() * workers)
	if e.tr == nil {
		return nil
	}
	if len(total.tracedHit) > 0 && len(total.untracedHit) > 0 {
		v["trace.overhead_frac"] = median(total.tracedHit)/median(total.untracedHit) - 1
	}
	e.selfShares(spanFrom, e.tr.mark())
	if asked := float64(after.total - before.total); asked > 0 {
		mem := float64(after.memHits - before.memHits)
		v["service.mem_hit_frac"] = mem / asked
		v["service.journal_hit_frac"] = (float64(after.outcome["hit"]-before.outcome["hit"]) - mem) / asked
		v["service.miss_frac"] = float64(after.outcome["miss"]-before.outcome["miss"]) / asked
		v["service.coalesced_frac"] = float64(after.outcome["coalesced"]-before.outcome["coalesced"]) / asked
	}
	e.timeTrain(estStudy.TrainingData(avgi.Structures()))
	return e.ladder(ladderSpec{
		programs: servePrograms, mode: avgi.ModeAVGI, faults: e.sz.serveFaults, seed: e.opts.seed * 1000,
		window: est.WindowFor,
	})
}

func tenant(c int) string { return fmt.Sprintf("client%d", c) }

// serveClient is one closed-loop client: it poses its next request only
// once the previous one is answered, n times. The count is fixed, not the
// time, so that every run at a seed serves the same request history: the
// service's per-request cost grows with the number of requests it has
// served. The deadline only stops a client that is far too slow (after at
// least sz.minRequests requests).
func (e *env) serveClient(svc *avgi.Service, c, n int, keys []serveKey, windows map[pair]uint64,
	perm []int, deadline time.Time) clientOut {
	var out clientOut
	rng := rand.New(rand.NewSource(e.opts.seed*7919 + int64(c)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	novel := 0
	for i := 0; i < n && (i < e.sz.minRequests || time.Now().Before(deadline)); i++ {
		var k serveKey
		if (i+c*novelEvery/2)%novelEvery == novelEvery-1 {
			k = e.novelKey(c, novel, windows)
			novel++
		} else {
			k = keys[perm[zipf.Uint64()]]
		}
		// In a traced run every other request records a span, so the gap
		// between the two halves is the tracing overhead.
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		sp := tr.begin("service.assess", 0, i)
		t0 := time.Now()
		resp, err := svc.Assess(k.request(tenant(c), e.sz.serveFaults))
		d := time.Since(t0)
		tr.end(sp)
		out.requests++
		if err != nil {
			out.errors++
			continue
		}
		simulated := resp.Meta.SimulatedFaults > 0
		out.faults += resp.Meta.SimulatedFaults
		quarantined := false
		for _, r := range resp.Result.Results {
			quarantined = quarantined || r.Quarantined
			if simulated {
				out.simCycles += r.SimCycles
			}
		}
		if quarantined {
			out.quarantined++
		}
		out.kept = append(out.kept, served{k, resp})
		if resp.Meta.JournalHit {
			out.hit = append(out.hit, ms(d))
			if tr != nil {
				out.tracedHit = append(out.tracedHit, ms(d))
			} else {
				out.untracedHit = append(out.untracedHit, ms(d))
			}
			continue
		}
		// A coalesced answer waited on another client's simulation for
		// part of its run: it counts as a request but has no latency of
		// its own kind.
		if !resp.Meta.Coalesced {
			out.miss = append(out.miss, ms(d))
		}
	}
	return out
}

// checkPayloads requires every answer for a key — hit, coalesced or miss —
// to marshal to the same bytes as the miss that first produced the key.
func (e *env) checkPayloads(payload map[serveKey][]byte, kept []served) {
	// Novel keys take their reference from their simulated answer.
	for _, s := range kept {
		if s.resp.Meta.SimulatedFaults > 0 {
			if _, ok := payload[s.key]; !ok {
				payload[s.key] = mustMarshal(s.resp.Result)
			}
		}
	}
	bad := 0
	for _, s := range kept {
		want, ok := payload[s.key]
		if !ok {
			e.rep.check(fmt.Errorf("serve: %+v answered without ever being simulated", s.key))
			continue
		}
		if !bytes.Equal(mustMarshal(s.resp.Result), want) {
			bad++
		}
	}
	if bad > 0 {
		e.rep.check(fmt.Errorf("serve: %d of %d answers differ from the miss that produced their key", bad, len(kept)))
	}
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // AssessResult holds only plain data
	}
	return b
}

// counts is a reading of the service's own request counters.
type counts struct {
	total   uint64
	outcome map[string]uint64
	memHits uint64
}

func serverCounts(o *avgi.Observer) counts {
	c := counts{outcome: map[string]uint64{}}
	for _, f := range o.Metrics.Snapshot() {
		switch f.Name {
		case "avgi_server_requests_total":
			for _, s := range f.Series {
				c.outcome[s.Labels["outcome"]] += s.Value
				c.total += s.Value
			}
		case "avgi_server_shard_cache_hits_total":
			for _, s := range f.Series {
				c.memHits += s.Value
			}
		}
	}
	return c
}
