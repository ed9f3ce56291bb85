package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"avgi"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs one workload at the tiny size and returns its exit code,
// standard output and parsed result line.
func tinyRun(t *testing.T, workload string, trace bool) (int, string, result) {
	t.Helper()
	o := options{workload: workload, seed: 3, size: "tiny", workdir: t.TempDir(), trace: trace}
	var stdout, stderr bytes.Buffer
	rep, err := runOptions(o, &stdout)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	code := printReport(o, rep, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	return code, stdout.String(), res
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(want), len(got))
		}
		for i := range got {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "train,assess,serve" {
		t.Errorf("BENCHMARK.json workloads = %v", names)
	}
}

// TestSmoke runs every workload, untraced and traced, at the tiny size and
// requires a correct result whose metrics are exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range []string{"train", "assess", "serve"} {
		for _, trace := range []bool{false, true} {
			code, out, res := tinyRun(t, w, trace)
			if code != 0 || !res.Correct {
				t.Fatalf("%s trace=%v: exit %d, correct=%v\n%s", w, trace, code, res.Correct, out)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, trace, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] printed as %+v", w, trace, m.Name, m.Unit, got)
				}
			}
			for _, m := range b.EndToEnd {
				if !trace && res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
				}
			}
		}
	}
}

func exactBlock(out string) string {
	var b strings.Builder
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "exact ") {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

func TestExactBlockRepeats(t *testing.T) {
	for _, w := range []string{"train", "assess", "serve"} {
		_, first, _ := tinyRun(t, w, false)
		_, second, _ := tinyRun(t, w, false)
		if exactBlock(first) == "" || exactBlock(first) != exactBlock(second) {
			t.Errorf("%s: exact blocks differ between two runs at one seed:\n%s\n%s", w, exactBlock(first), exactBlock(second))
		}
	}
}

func TestCorruptDigestTripsTheCheck(t *testing.T) {
	if err := checkDigests("iteration", []uint64{1, 1}); err != nil {
		t.Fatalf("equal digests tripped the check: %v", err)
	}
	if err := checkDigests("iteration", []uint64{1, 2}); err == nil {
		t.Fatal("a differing iteration digest passed the check")
	}
}

// TestMismatchedHitPayloadTripsTheCheck gives checkPayloads a hit whose
// results differ from the miss that produced its key.
func TestMismatchedHitPayloadTripsTheCheck(t *testing.T) {
	key := serveKey{structure: "RF", program: "crc32", seed: 1, window: 100}
	miss := avgi.AssessResult{Results: []avgi.CampaignResult{{IMM: 1}}}
	hit := func(r avgi.AssessResult) []served {
		resp := &avgi.AssessResponse{Result: r}
		resp.Meta.JournalHit = true
		return []served{{key, resp}}
	}
	check := func(kept []served) []error {
		e := &env{rep: &report{values: map[string]float64{}}}
		e.checkPayloads(map[serveKey][]byte{key: mustMarshal(miss)}, kept)
		return e.rep.checks
	}
	if errs := check(hit(miss)); len(errs) != 0 {
		t.Fatalf("an identical hit tripped the check: %v", errs)
	}
	bad := avgi.AssessResult{Results: []avgi.CampaignResult{{IMM: 2}}}
	if errs := check(hit(bad)); len(errs) == 0 {
		t.Fatal("a hit whose payload differs from its miss passed the check")
	}
}

func TestSelfShares(t *testing.T) {
	// bench.root [0,100] with children study [10,40] and sched [30,70]:
	// the root's self time is 100-60 = 40.
	tr := &tracer{spans: []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "study.new", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sched.ask", Start: 30, End: 70},
	}}
	got := tr.selfShares(0, 3)
	want := map[string]float64{"bench": 40.0 / 110, "study": 30.0 / 110, "sched": 40.0 / 110}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("share of %s = %v, want %v", k, got[k], v)
		}
	}
}
