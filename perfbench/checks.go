package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"avgi"
)

// campaignOut is one (structure, program) result set of an iteration.
type campaignOut struct {
	structure, program string
	results            []avgi.CampaignResult
}

// tally is the exact, host-independent content of an iteration: the same
// seed must give the same tally on every iteration, every run and every
// host, and a change that only claims speed must leave it untouched.
type tally struct {
	faults      int
	quarantined int
	simCycles   uint64
	simByStruct map[string]uint64
	imm         map[string]int
	effect      map[string]int
	digest      uint64
}

// classBytes appends the classification of one fault: every Result field
// except SimCycles, which early exit legitimately changes.
func classBytes(b []byte, r avgi.CampaignResult) []byte {
	b = append(b, byte(r.IMM), byte(r.Effect), boolByte(r.HasEffect),
		boolByte(r.Manifested), byte(r.Crash), boolByte(r.Runaway))
	return binary.LittleEndian.AppendUint64(b, r.ManifestLatency)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// tallyOf folds campaigns, in the given order, into a tally. The digest
// covers each fault's classification in fault order.
func tallyOf(cs []campaignOut) tally {
	t := tally{simByStruct: map[string]uint64{}, imm: map[string]int{}, effect: map[string]int{}}
	h := fnv.New64a()
	var buf []byte
	for _, c := range cs {
		fmt.Fprintf(h, "%s/%s\x00", c.structure, c.program)
		for _, r := range c.results {
			t.faults++
			if r.Quarantined {
				t.quarantined++
			}
			t.simCycles += r.SimCycles
			t.simByStruct[c.structure] += r.SimCycles
			t.imm[r.IMM.String()]++
			if r.HasEffect {
				t.effect[r.Effect.String()]++
			}
			buf = classBytes(buf[:0], r)
			h.Write(buf)
		}
	}
	t.digest = h.Sum64()
	return t
}

// writeExact prints the exact-count block: golden cycles per program,
// simulated cycles per structure, IMM and effect tallies and the results
// digest. Two runs at one seed must print identical blocks.
func writeExact(w io.Writer, golden map[string]uint64, t tally) {
	var names []string
	for p := range golden {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		fmt.Fprintf(w, "exact golden_cycles.%s %d\n", p, golden[p])
	}
	for _, s := range avgi.Structures() {
		fmt.Fprintf(w, "exact sim_cycles.%s %d\n", structMetric(s), t.simByStruct[s])
	}
	for _, k := range sortedKeys(t.imm) {
		fmt.Fprintf(w, "exact imm.%s %d\n", k, t.imm[k])
	}
	for _, k := range sortedKeys(t.effect) {
		fmt.Fprintf(w, "exact effect.%s %d\n", k, t.effect[k])
	}
	fmt.Fprintf(w, "exact faults %d\n", t.faults)
	fmt.Fprintf(w, "exact quarantined %d\n", t.quarantined)
	fmt.Fprintf(w, "exact digest %016x\n", t.digest)
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkDigests fails unless every iteration produced the same digest.
func checkDigests(what string, digests []uint64) error {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("%s %d: results digest %016x differs from %s 0's %016x",
				what, i, d, what, digests[0])
		}
	}
	return nil
}

// checkGolden runs every program from cycle 0 on a bare machine and
// compares its output with the workload's reference model; it returns the
// golden cycle counts, and the first mismatch or error.
func checkGolden(cfg avgi.MachineConfig, programs []string) (map[string]uint64, error) {
	out := make(map[string]uint64, len(programs))
	var first error
	for _, p := range programs {
		res, err := goldenRun(cfg, p)
		if err != nil && first == nil {
			first = err
		}
		out[p] = res.Cycles
	}
	return out, first
}

// goldenRun simulates one program and checks its output.
func goldenRun(cfg avgi.MachineConfig, program string) (avgi.RunResult, error) {
	m, err := avgi.NewMachine(cfg, program)
	if err != nil {
		return avgi.RunResult{}, err
	}
	res := m.Run(avgi.RunOptions{})
	if err := checkOutput(cfg, program, res.Output); err != nil {
		return res, err
	}
	return res, nil
}

// checkOutput compares a golden output with Workload.Ref.
func checkOutput(cfg avgi.MachineConfig, program string, got []byte) error {
	w, err := avgi.WorkloadByName(program)
	if err != nil {
		return err
	}
	if want := w.Ref(cfg.Variant); !bytes.Equal(got, want) {
		return fmt.Errorf("golden output of %s (%d bytes) differs from the reference model (%d bytes)",
			program, len(got), len(want))
	}
	return nil
}

// sameClass reports whether two results of one fault classify identically.
func sameClass(a, b avgi.CampaignResult) bool {
	return bytes.Equal(classBytes(nil, a), classBytes(nil, b))
}
