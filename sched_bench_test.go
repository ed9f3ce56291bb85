package avgi

import "testing"

// Scheduler benchmarks: study-level throughput of the serial pair-by-pair
// driving style (each campaign runs alone, workers idle between pairs)
// against Prefetch/RunAll (campaigns overlap, the shared budget stays
// saturated across pair boundaries).
//
// Reproduce with:
//
//	go test -run='^$' -bench=StudyGrid -benchtime=3x .
//
// Each iteration builds a fresh Study (fresh single-flight cache) so every
// campaign genuinely executes; golden runs are the per-iteration setup cost
// either way, so the delta isolates the scheduling policy.

func newSchedBenchStudy(b *testing.B) *Study {
	b.Helper()
	var wl []Workload
	for _, n := range []string{"sha", "crc32"} {
		w, err := WorkloadByName(n)
		if err != nil {
			b.Fatal(err)
		}
		wl = append(wl, w)
	}
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          wl,
		Structures:         []string{"RF", "ROB"},
		FaultsPerStructure: 32,
		Workers:            4,
		SeedBase:           7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchStudyGrid(b *testing.B, scheduled bool) {
	b.ReportAllocs()
	faults := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newSchedBenchStudy(b)
		b.StartTimer()
		if scheduled {
			s.RunAll(ModeExhaustive)
		}
		for _, structure := range s.Cfg.Structures {
			for _, w := range s.WorkloadNames() {
				faults += len(s.Exhaustive(structure, w))
			}
		}
	}
	b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faults/s")
}

func BenchmarkStudyGridSerial(b *testing.B)    { benchStudyGrid(b, false) }
func BenchmarkStudyGridScheduled(b *testing.B) { benchStudyGrid(b, true) }
