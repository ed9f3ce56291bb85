package main

import (
	"math"
	"sort"
	"strings"
	"syscall"
	"time"

	"avgi"
)

// metricDef is one metric the benchmark reports; the two tables below must
// list exactly the names, units and order of BENCHMARK.json (the smoke
// tests compare them).
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run, whatever the workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"faults_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_p95_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// probePrograms are the programs whose golden runs every traced run
// measures, sorted by name.
var probePrograms = []string{"blowfish", "crc32", "qsort", "sha", "stringsearch"}

// selfLayers are the layers whose self-time share of the measured loop a
// traced run reports (see spans.go for which call each one wraps).
var selfLayers = []string{"bench", "study", "sched", "memo", "core", "service"}

// perLayer is printed by every traced run, whatever the workload; a layer
// the workload does not exercise reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"cpu.golden_cycles_per_s", "1/s"},
		{"cpu.allocs_per_kcycle", "count"},
		{"cpu.alloc_kb_per_kcycle", "KB"},
	}
	for _, p := range probePrograms {
		defs = append(defs, metricDef{"cpu.golden_cycles." + p, "cycles"})
	}
	for _, s := range avgi.Structures() {
		defs = append(defs, metricDef{"campaign." + structMetric(s) + ".us_per_fault", "us"})
	}
	for _, s := range avgi.Structures() {
		defs = append(defs, metricDef{"campaign." + structMetric(s) + ".sim_cycles_per_fault", "cycles"})
	}
	defs = append(defs,
		metricDef{"campaign.fork_us_per_fault", "us"},
		metricDef{"campaign.window_fill", "frac"},
		metricDef{"campaign.allocs_per_fault", "count"},
		metricDef{"campaign.alloc_kb_per_fault", "KB"},
		metricDef{"campaign.new_runner_ms", "ms"},
		metricDef{"ckpt.record_ms", "ms"},
		metricDef{"sched.cpu_util", "frac"},
		metricDef{"core.train_ms", "ms"},
		metricDef{"service.mem_hit_frac", "frac"},
		metricDef{"service.journal_hit_frac", "frac"},
		metricDef{"service.miss_frac", "frac"},
		metricDef{"service.coalesced_frac", "frac"},
		metricDef{"journal.load_ms_per_kfault", "ms"},
		metricDef{"journal.append_us_per_fault", "us"},
		metricDef{"journal.bytes_per_fault", "B"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"trace.self_share." + l, "frac"})
	}
	return defs
}

// structMetric maps a Table II structure name to a metric-name component:
// "L1I (Data)" becomes "l1i_data", "RF" becomes "rf".
func structMetric(s string) string {
	s = strings.ToLower(s)
	s = strings.NewReplacer(" (", "_", ")", "", " ", "_").Replace(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rusage returns the process's CPU time so far and its peak resident set
// size in MB.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KB
}
