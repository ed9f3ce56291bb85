// Command perfbench is the repository benchmark. It runs one workload at a
// seed for a fixed time, checks the program's outputs, and prints every
// metric named in BENCHMARK.json; the last line of standard output is one
// JSON object. Build and run it from the root of a checkout with
//
//	bash perfbench/bench.sh --workload train --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	train   ground-truth SFI: a fresh Study per iteration over sha, crc32
//	        and qsort, every structure in exhaustive mode, then
//	        TrainEstimator
//	assess  AVGI assessment of stringsearch and blowfish on every
//	        structure with early exit, under an estimator trained during
//	        set-up with a fixed seed
//	serve   an in-process Service over a temporary journal, asked by two
//	        closed-loop clients for a Zipf mix of repeats and novel keys
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around each layer call, runs the per-layer probes and
// reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avgi"
)

// workers is the worker budget of every workload.
const workers = 2

// minIters is the number of iterations a train or assess run makes however
// short --seconds is, so the cross-iteration digest check always compares.
const minIters = 2

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // a key of sizeTable; the tests use "tiny"
	workdir  string
}

// sizes is the amount of work per iteration or request.
type sizes struct {
	setups       int           // least set-ups per run; setup_s is their median
	setupFloor   time.Duration // least total set-up time per run
	trainFaults  int           // faults per (structure, program) in train
	assessFaults int           // faults per (structure, program) in assess
	estFaults    int           // faults per pair of assess's training grid
	hitRounds    int           // whole-grid re-reads per iteration once the grid is answered
	diffFaults   int           // faults per pair re-run with early exit off
	serveFaults  int           // faults per serve request
	serveSeeds   int           // warm keys = structures × serve programs × serveSeeds
	serveRate    float64       // requests each serve client makes per second of --seconds
	minRequests  int           // requests each serve client makes however short --seconds is
	probeRepeats int           // golden runs per program in the cpu probe
}

var sizeTable = map[string]sizes{
	"full": {setups: 3, setupFloor: time.Second, trainFaults: 16, assessFaults: 128, estFaults: 8,
		hitRounds: 200, diffFaults: 6, serveFaults: 32, serveSeeds: 4, serveRate: 237, minRequests: 100, probeRepeats: 3},
	// tiny exists for the smoke tests: every code path, seconds of work.
	"tiny": {setups: 1, trainFaults: 1, assessFaults: 2, estFaults: 2,
		hitRounds: 1, diffFaults: 1, serveFaults: 2, serveSeeds: 1, minRequests: 200, probeRepeats: 1},
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produced.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	golden    map[string]uint64
	exact     tally
	checks    []error
}

// check records a failed correctness check; nil is ignored.
func (r *report) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{size: "full"}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: train, assess or serve")
	fs.Int64Var(&o.seed, "seed", 1, "fault-sample seed (>= 1)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"),
		"directory for temporary journals and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seed < 1 {
		fmt.Fprintln(stderr, "perfbench: -seed must be at least 1")
		return 2
	}
	rep, err := runOptions(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return printReport(o, rep, stdout, stderr)
}

// runOptions runs one workload in a private temporary directory.
func runOptions(o options, logw io.Writer) (*report, error) {
	sz, ok := sizeTable[o.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", o.size)
	}
	runFn, ok := map[string]func(*env) error{"train": runTrain, "assess": runAssess, "serve": runServe}[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q (want train, assess or serve)", o.workload)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{
		opts: o, sz: sz, cfg: avgi.ConfigA72(), tmp: tmp, logw: logw,
		rep: &report{values: make(map[string]float64)},
	}
	if o.trace {
		e.tr = newTracer()
	}
	if err := runFn(e); err != nil {
		return nil, err
	}
	if e.tr != nil {
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.ndjson", o.workload, o.seed))
		if err := e.tr.writeNDJSON(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(logw, "spans %s\n", path)
	}
	return e.rep, nil
}

// printReport prints the exact-count block, every metric with its unit,
// and the JSON result line; it returns the exit code.
func printReport(o options, rep *report, stdout, stderr io.Writer) int {
	writeExact(stdout, rep.golden, rep.exact)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.checks) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s %v %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: no value for %s\n", strings.Join(missing, ", "))
		return 1
	}
	failFrac := 0.0
	if rep.attempted > 0 {
		failFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "metric fail_frac %v frac\n", failFrac)
	for _, err := range rep.checks {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
