package avgi

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment), plus substrate
// micro-benchmarks. Each figure benchmark regenerates the corresponding
// table from a shared study and reports the headline scalar the paper's
// version of that figure argues (speedup, accuracy delta, correlation).
//
// The shared study uses reduced sample sizes so `go test -bench=.` stays
// laptop-friendly; cmd/avgi runs the same experiments at full scale.

import (
	"math"
	"sync"
	"testing"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/imm"
	"avgi/internal/isa"
	"avgi/internal/stats"
	"avgi/internal/trace"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchEst   *Estimator
)

func getBenchStudy(b *testing.B) (*Study, *Estimator) {
	b.Helper()
	benchOnce.Do(func() {
		var wls []Workload
		for _, n := range []string{"sha", "crc32", "qsort"} {
			w, err := WorkloadByName(n)
			if err != nil {
				panic(err)
			}
			wls = append(wls, w)
		}
		s, err := NewStudy(StudyConfig{
			Machine:            ConfigA72(),
			Workloads:          wls,
			FaultsPerStructure: 48,
			SeedBase:           13,
		})
		if err != nil {
			panic(err)
		}
		benchStudy = s
		benchEst = s.TrainEstimator()
	})
	return benchStudy, benchEst
}

// --- substrate micro-benchmarks ---

// BenchmarkGoldenRun measures raw simulator throughput; the ReportMetric
// value (cycles/sec) feeds the Table II days model.
func BenchmarkGoldenRun(b *testing.B) {
	cfg := ConfigA72()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(cfg, "sha")
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run(RunOptions{})
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSingleFaultExhaustive measures one traditional end-to-end SFI
// run (fork, flip, simulate to completion, classify).
func BenchmarkSingleFaultExhaustive(b *testing.B) {
	r, err := NewRunner(ConfigA72(), "sha")
	if err != nil {
		b.Fatal(err)
	}
	faults := r.FaultList("RF", 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(faults, ModeExhaustive, 0, 1)
	}
}

// BenchmarkSingleFaultAVGI measures one AVGI-mode run for comparison; the
// per-op ratio against BenchmarkSingleFaultExhaustive is the wall-clock
// realisation of the Table II speedup for this structure.
func BenchmarkSingleFaultAVGI(b *testing.B) {
	r, err := NewRunner(ConfigA72(), "sha")
	if err != nil {
		b.Fatal(err)
	}
	faults := r.FaultList("RF", 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(faults, ModeAVGI, 1500, 1)
	}
}

// BenchmarkIMMClassifier measures the Table I / Fig. 2 decision procedure.
func BenchmarkIMMClassifier(b *testing.B) {
	g := trace.Record{Cycle: 10, PC: 0x1000, Word: isa.Encode(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 2, Rs2: 3}), HasDest: true, Value: 7}
	f := g
	f.Word = isa.Encode(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 6, Rs2: 3})
	f.Value = 9
	in := imm.Inputs{
		Dev:     trace.Deviation{Kind: trace.DevRecord, Golden: g, Faulty: f},
		Variant: isa.V64,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if imm.Classify(in) != imm.OFS {
			b.Fatal("misclassified")
		}
	}
}

// --- one benchmark per paper table/figure ---

// BenchmarkFig1_ACEvsSFI regenerates Fig. 1 and reports the mean ACE/SFI
// overestimation factor (the paper observes 1.2x-3x).
func BenchmarkFig1_ACEvsSFI(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig1() // warm caches
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rs []float64
		for _, w := range s.WorkloadNames() {
			sfi := s.GroundTruthAVF("RF", w).Total()
			if sfi > 0 {
				rs = append(rs, ACEAnalyzeRF(s.Runner(w))/sfi)
			}
		}
		ratio = stats.Mean(rs)
	}
	b.ReportMetric(ratio, "ACE/SFI")
}

// BenchmarkFig3_IMMDistribution regenerates the Fig. 3 tables and reports
// the cross-workload IMM-distribution spread for the L1I data array (the
// uniformity insight: smaller is more uniform).
func BenchmarkFig3_IMMDistribution(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig3()
	var spread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Fig3()
		dist := s.IMMDistribution("L1I (Data)")
		spread = 0
		for _, class := range imm.Classes {
			var xs []float64
			for _, d := range dist {
				xs = append(xs, d[class])
			}
			if sd := stats.StdDev(xs); sd > spread {
				spread = sd
			}
		}
	}
	b.ReportMetric(spread, "maxStddev")
}

// BenchmarkFig4_EffectPerIMM regenerates Fig. 4 (effect probability per IMM
// for L1I) and reports the worst cross-workload standard deviation (the
// paper observes 0.1%-2.4%).
func BenchmarkFig4_EffectPerIMM(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig4()
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := s.EffectPerIMM("L1I (Data)")
		worst = 0
		for _, class := range imm.Classes {
			for e := 0; e < 3; e++ {
				var xs []float64
				for _, m := range per {
					if p, ok := m[class]; ok {
						xs = append(xs, p[e])
					}
				}
				if sd := stats.StdDev(xs); sd > worst {
					worst = sd
				}
			}
		}
	}
	b.ReportMetric(worst, "maxStddev")
}

// BenchmarkFig5_Weights regenerates the trained weight tables.
func BenchmarkFig5_Weights(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig5()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Fig5()) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkFig7_ESCPrediction regenerates Fig. 7 and reports the Pearson
// correlation between real and predicted ESC counts for the L1D data array.
func BenchmarkFig7_ESCPrediction(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig7()
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		td := s.TrainingData(Fig7Structures)
		model := core.TrainESC(td.Results, td.Exposure)
		var real, pred []float64
		for _, w := range s.WorkloadNames() {
			sum := campaign.Summarize(s.Exhaustive("L1D (Data)", w))
			real = append(real, float64(sum.ByIMM[imm.ESC]))
			pred = append(pred, model.Predict("L1D (Data)", td.Exposure["L1D (Data)"][w], sum.Total, sum.Benign))
		}
		r = stats.Pearson(real, pred)
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkFig8_InclusiveExclusive regenerates Fig. 8 and reports the
// largest inclusive-vs-exclusive IMM fraction difference (the paper shows
// the two are virtually identical).
func BenchmarkFig8_InclusiveExclusive(b *testing.B) {
	s, est := getBenchStudy(b)
	s.Fig8(est)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, w := range s.WorkloadNames() {
			inc := campaign.Summarize(s.Exhaustive("L1I (Data)", w)).IMMFractions()
			res, _ := s.AVGIRun(est, "L1I (Data)", w)
			exc := campaign.Summarize(res).IMMFractions()
			for c, f := range inc {
				if d := math.Abs(f - exc[c]); d > worst {
					worst = d
				}
			}
		}
	}
	b.ReportMetric(worst, "maxDelta")
}

// BenchmarkFig9_ResidencyCDF regenerates the residency analysis and reports
// the register file's derived ERT window in cycles (Table II column 1).
func BenchmarkFig9_ResidencyCDF(b *testing.B) {
	s, est := getBenchStudy(b)
	s.Fig9(est)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Fig9(est)
	}
	b.ReportMetric(float64(est.ERT["RF"].Cycles), "RFwindow")
}

// BenchmarkTable2_Speedup regenerates Table II and reports the whole-CPU
// SFI/AVGI speedup (the paper reports 22x for the 64-bit CPU; the absolute
// value here depends on the cycle-count scaling, the ordering across
// structures is the reproduced shape).
func BenchmarkTable2_Speedup(b *testing.B) {
	s, est := getBenchStudy(b)
	s.TimingRows(est)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.TimingRows(est)
		var sfi, avgi uint64
		for _, r := range rows {
			sfi += r.SFICycles
			avgi += r.AVGICycles
		}
		total = float64(sfi) / float64(avgi)
	}
	b.ReportMetric(total, "CPUspeedup")
}

// BenchmarkFig10_Accuracy regenerates the Fig. 10 accuracy comparison for
// the register file and reports the worst |AVF_real - AVF_AVGI| across
// workloads (leave-one-out).
func BenchmarkFig10_Accuracy(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Fig10("RF")
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, w := range s.WorkloadNames() {
			truth := s.GroundTruthAVF("RF", w)
			est := s.TrainEstimator(w)
			results, window := s.AVGIRun(est, "RF", w)
			a := est.AssessResults(s.Runner(w), "RF", results, window)
			if d := math.Abs(a.AVF.Total() - truth.Total()); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "maxAVFdelta")
}

// BenchmarkFig11_FIT regenerates the FIT table and reports the whole-chip
// relative FIT error of the methodology (the paper reports 0.2%).
func BenchmarkFig11_FIT(b *testing.B) {
	s, est := getBenchStudy(b)
	s.Fig11()
	var relErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var chipReal, chipEst core.FIT
		anyRunner := s.Runner(s.WorkloadNames()[0])
		for _, structure := range s.Cfg.Structures {
			bits := anyRunner.BitCounts[structure]
			for _, w := range s.WorkloadNames() {
				truth := s.GroundTruthAVF(structure, w)
				results, window := s.AVGIRun(est, structure, w)
				a := est.AssessResults(s.Runner(w), structure, results, window)
				chipReal = chipReal.Add(core.FITOf(truth, bits))
				chipEst = chipEst.Add(core.FITOf(a.AVF, bits))
			}
		}
		if chipReal.Total() > 0 {
			relErr = math.Abs(chipReal.Total()-chipEst.Total()) / chipReal.Total()
		}
	}
	b.ReportMetric(relErr, "chipFITrelErr")
}

// BenchmarkMotivation_PVFvsAVF regenerates the introduction's pitfall
// comparison and reports the mean ISA-level-PVF / microarch-AVF
// overestimation factor.
func BenchmarkMotivation_PVFvsAVF(b *testing.B) {
	s, _ := getBenchStudy(b)
	s.Motivation()
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rs []float64
		for _, w := range s.WorkloadNames() {
			sum, err := ArchLevelCampaign(s.Cfg.Machine, w, 60, 3)
			if err != nil {
				b.Fatal(err)
			}
			if avf := s.GroundTruthAVF("RF", w).Total(); avf > 0 {
				rs = append(rs, sum.PVF()/avf)
			}
		}
		ratio = stats.Mean(rs)
	}
	b.ReportMetric(ratio, "PVF/AVF")
}

// BenchmarkMultiBitAblation runs the Section VII.A single-vs-multi-bit
// sweep and reports the 4-bit/1-bit AVF amplification.
func BenchmarkMultiBitAblation(b *testing.B) {
	s, _ := getBenchStudy(b)
	var amp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avfFor := func(width int) float64 {
			var xs []float64
			for _, w := range s.WorkloadNames() {
				r := s.Runner(w)
				faults := r.MultiBitFaultList("RF", 40, width, 23)
				sum := campaign.Summarize(r.Run(faults, campaign.ModeExhaustive, 0, 0))
				xs = append(xs, core.AVFFromEffects(sum).Total())
			}
			return stats.Mean(xs)
		}
		one := avfFor(1)
		if one > 0 {
			amp = avfFor(4) / one
		}
	}
	b.ReportMetric(amp, "AVF4b/1b")
}

// BenchmarkFig12_CaseStudy32 runs the Section VI case study on the 32-bit
// machine and reports the worst RF AVF delta there.
func BenchmarkFig12_CaseStudy32(b *testing.B) {
	var wls []Workload
	for _, n := range []string{"sha", "crc32"} {
		w, err := WorkloadByName(n)
		if err != nil {
			b.Fatal(err)
		}
		wls = append(wls, w)
	}
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA15(),
		Workloads:          wls,
		Structures:         Fig12Structures,
		FaultsPerStructure: 40,
		SeedBase:           17,
	})
	if err != nil {
		b.Fatal(err)
	}
	Fig12(s)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, w := range s.WorkloadNames() {
			truth := s.GroundTruthAVF("RF", w)
			est := s.TrainEstimator(w)
			results, window := s.AVGIRun(est, "RF", w)
			a := est.AssessResults(s.Runner(w), "RF", results, window)
			if d := math.Abs(a.AVF.Total() - truth.Total()); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "maxAVFdelta")
}
