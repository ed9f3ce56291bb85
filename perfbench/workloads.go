package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"avgi"
	"avgi/internal/core"
)

var (
	trainPrograms  = []string{"sha", "crc32", "qsort"}
	assessPrograms = []string{"stringsearch", "blowfish"}
)

// estSeed is the fault-sample seed of the training grid behind assess's
// and serve's ERT windows. It is fixed, not taken from --seed: ERT windows
// trained on small samples swing widely with the seed, and so would the
// amount of work assess and serve do.
const estSeed = 1

// runTrain measures ground-truth SFI: per iteration a fresh Study (a Study
// memoises its campaigns) asks the whole exhaustive grid at once, trains
// the estimator, then reads every pair's ground truth back from the memo.
func runTrain(e *env) error {
	progs := workloadsOf(trainPrograms)
	newStudy := func() (*avgi.Study, error) {
		return avgi.NewStudy(avgi.StudyConfig{
			Machine: e.cfg, Workloads: progs, FaultsPerStructure: e.sz.trainFaults,
			Workers: workers, SeedBase: e.opts.seed, Obs: avgi.NewObserver(nil),
		})
	}
	// Set-up: the golden runs every Study starts from.
	if err := e.setups(func(int) error { _, err := newStudy(); return err }, nil); err != nil {
		return err
	}
	ps := pairs(trainPrograms)
	var last *avgi.Study
	lo, err := e.iterations(func(i int, tr *tracer) (iterOut, error) {
		start := time.Now()
		root := tr.begin("bench.iteration", 0, i)
		sp := tr.begin("study.new", root, i)
		st, err := newStudy()
		tr.end(sp)
		if err != nil {
			return iterOut{}, err
		}
		ask := func(p pair, _ int) { st.GroundTruthAVF(p.structure, p.program) }
		e.grid(tr, ps, root, i, "ground_truth", ask)
		sp = tr.begin("core.train_estimator", root, i)
		st.TrainEstimator()
		tr.end(sp)
		e.hits(tr, ps, root, i, "ground_truth", ask)
		tr.end(root)
		out := iterOut{wall: time.Since(start), requests: len(ps) + e.sz.hitRounds}
		for _, p := range ps {
			out.campaigns = append(out.campaigns, campaignOut{p.structure, p.program, st.Exhaustive(p.structure, p.program)})
		}
		for _, p := range trainPrograms {
			e.rep.check(checkOutput(e.cfg, p, st.Runner(p).Golden.Output))
		}
		last = st
		return out, nil
	})
	if err != nil {
		return err
	}
	e.rep.golden = goldenOf(last.Runner, trainPrograms)
	e.finishLoop(lo)
	if e.tr == nil {
		return nil
	}
	e.timeTrain(last.TrainingData(avgi.Structures()))
	return e.ladder(ladderSpec{
		programs: trainPrograms, mode: avgi.ModeExhaustive, faults: e.sz.trainFaults, seed: e.opts.seed,
	})
}

// timeTrain times core.Train, the estimator fit, on the given data.
func (e *env) timeTrain(td core.TrainingData) {
	sp := e.tr.begin("ladder.core_train", 0, 0)
	t0 := time.Now()
	core.Train(td)
	e.rep.values["core.train_ms"] = ms(time.Since(t0))
	e.tr.end(sp)
}

// runAssess measures the methodology's product: per iteration a fresh
// Study over the held-out programs asks every (structure, program)
// assessment at once — AVGI-mode campaigns under the trained ERT windows
// with early exit, then phases 4-5 — and then re-reads the grid from the
// memo.
func runAssess(e *env) error {
	var est *avgi.Estimator
	var estStudy *avgi.Study
	var estDigests []uint64
	err := e.setups(func(int) error {
		var err error
		est, estStudy, err = e.trainEstimator()
		return err
	}, func(int) {
		estDigests = append(estDigests, trainingDigest(estStudy))
	})
	if err != nil {
		return err
	}
	e.rep.check(checkDigests("training set-up", estDigests))

	progs := workloadsOf(assessPrograms)
	ps := pairs(assessPrograms)
	var last *avgi.Study
	lo, err := e.iterations(func(i int, tr *tracer) (iterOut, error) {
		start := time.Now()
		root := tr.begin("bench.iteration", 0, i)
		sp := tr.begin("study.new", root, i)
		st, err := avgi.NewStudy(avgi.StudyConfig{
			Machine: e.cfg, Workloads: progs, FaultsPerStructure: e.sz.assessFaults,
			Workers: workers, SeedBase: e.opts.seed, Obs: avgi.NewObserver(nil), EarlyExit: true,
		})
		tr.end(sp)
		if err != nil {
			return iterOut{}, err
		}
		ask := func(p pair, parent int) {
			res, window := st.AVGIRun(est, p.structure, p.program)
			sp := tr.begin("core.assess_results", parent, i)
			est.AssessResults(st.Runner(p.program), p.structure, res, window)
			tr.end(sp)
		}
		e.grid(tr, ps, root, i, "assess", ask)
		e.hits(tr, ps, root, i, "assess", ask)
		tr.end(root)
		out := iterOut{wall: time.Since(start), requests: len(ps) + e.sz.hitRounds}
		for _, p := range ps {
			res, _ := st.AVGIRun(est, p.structure, p.program)
			out.campaigns = append(out.campaigns, campaignOut{p.structure, p.program, res})
		}
		for _, p := range assessPrograms {
			e.rep.check(checkOutput(e.cfg, p, st.Runner(p).Golden.Output))
		}
		last = st
		return out, nil
	})
	if err != nil {
		return err
	}
	e.rep.golden = goldenOf(last.Runner, assessPrograms)
	e.finishLoop(lo)
	if err := e.checkEarlyExit(est, last); err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	e.timeTrain(estStudy.TrainingData(avgi.Structures()))
	return e.ladder(ladderSpec{
		programs: assessPrograms, mode: avgi.ModeAVGI, faults: e.sz.assessFaults, seed: e.opts.seed,
		earlyExit: true, window: est.WindowFor,
	})
}

// trainEstimator trains the estimator assess and serve work under: an
// exhaustive grid over the training programs at the fixed seed estSeed,
// then TrainEstimator.
func (e *env) trainEstimator() (*avgi.Estimator, *avgi.Study, error) {
	st, err := avgi.NewStudy(avgi.StudyConfig{
		Machine: e.cfg, Workloads: workloadsOf(trainPrograms), FaultsPerStructure: e.sz.estFaults,
		Workers: workers, SeedBase: estSeed, Obs: avgi.NewObserver(nil),
	})
	if err != nil {
		return nil, nil, err
	}
	return st.TrainEstimator(), st, nil
}

// trainingDigest is the results digest of a trained study's grid.
func trainingDigest(st *avgi.Study) uint64 {
	var cs []campaignOut
	for _, p := range pairs(trainPrograms) {
		cs = append(cs, campaignOut{p.structure, p.program, st.Exhaustive(p.structure, p.program)})
	}
	return tallyOf(cs).digest
}

// checkEarlyExit re-runs a seeded sample of each campaign's faults with
// early exit off, on fresh runners, and requires the same classification
// and no fewer simulated cycles.
func (e *env) checkEarlyExit(est *avgi.Estimator, st *avgi.Study) error {
	rng := rand.New(rand.NewSource(e.opts.seed))
	for _, p := range assessPrograms {
		ref, err := avgi.NewRunner(e.cfg, p)
		if err != nil {
			return err
		}
		ref.Obs = avgi.NewObserver(nil)
		for _, s := range avgi.Structures() {
			got, window := st.AVGIRun(est, s, p)
			faults := ref.FaultList(s, e.sz.assessFaults, e.opts.seed)
			idx := rng.Perm(len(faults))[:min(e.sz.diffFaults, len(faults))]
			sort.Ints(idx)
			sample := make([]avgi.Fault, len(idx))
			for k, i := range idx {
				sample[k] = faults[i]
			}
			want := ref.Run(sample, avgi.ModeAVGI, window, workers)
			for k, i := range idx {
				if !sameClass(got[i], want[k]) || got[i].SimCycles > want[k].SimCycles {
					e.rep.check(fmt.Errorf("%s/%s fault %d: early exit classified %+v, full window %+v",
						s, p, i, got[i], want[k]))
				}
			}
		}
	}
	return nil
}
