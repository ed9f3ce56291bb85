package avgi

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"avgi/internal/journal"
)

func distStudy(t *testing.T, journalDir, owner string) *Study {
	t.Helper()
	w, err := WorkloadByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          []Workload{w},
		Structures:         []string{"RF"},
		FaultsPerStructure: 16,
		Workers:            2,
		JournalDir:         journalDir,
		Resume:             true,
		Fsync:              SyncEvery,
	}
	if owner != "" {
		cfg.Dist = &DistConfig{Fleet: 4, Owner: owner, LeaseTTL: 2 * time.Second}
	}
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// distShard locates the canonical shard a study's RF/crc32 HVF campaign
// journals to, for byte-level comparisons.
func distShard(t *testing.T, s *Study, dir string) (journal.Key, journal.Binding, string) {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journal.Key{Structure: "RF", Workload: "crc32", Mode: ModeHVF.String()}
	bind := journal.Binding{
		Machine:     s.Cfg.Machine.Name,
		Variant:     s.Cfg.Machine.Variant.String(),
		ProgramHash: journal.HashProgram(s.Runner("crc32").Prog),
		Seed:        s.Cfg.SeedBase,
		Faults:      s.Cfg.FaultsPerStructure,
	}
	return key, bind, filepath.Join(dir, filepath.FromSlash(j.ShardID(key, bind)))
}

// TestStudyDistTwoNodes drives the distributed layer through the public
// Study API: two studies (two "processes") sharing one journal directory
// split a campaign via file leases, both return the exact single-process
// results, and the merged canonical shard is byte-identical to the one a
// plain journalled study writes.
func TestStudyDistTwoNodes(t *testing.T) {
	// Result reference: a plain (non-distributed) journalled study. Its
	// shard bytes are NOT the byte-identity reference — a live journal
	// appends chunks in completion order, which is timing-dependent; only
	// merged canonical shards are canonicalised into fault-index order.
	want := distStudy(t, t.TempDir(), "").Campaign("RF", "crc32", ModeHVF, 0)

	// Byte reference: a single-node fleet over its own journal directory.
	refDir := t.TempDir()
	ref := distStudy(t, refDir, "ref-node")
	if res := ref.Campaign("RF", "crc32", ModeHVF, 0); !reflect.DeepEqual(res, want) {
		t.Fatal("single-node fleet diverges from the plain study")
	}
	_, _, refShard := distShard(t, ref, refDir)
	refBytes, err := os.ReadFile(refShard)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: two dist-mode studies over one shared journal directory.
	dir := t.TempDir()
	nodes := [2]*Study{distStudy(t, dir, "node-0"), distStudy(t, dir, "node-1")}
	var got [2][]CampaignResult
	var wg sync.WaitGroup
	for i, s := range nodes {
		wg.Add(1)
		go func(i int, s *Study) {
			defer wg.Done()
			got[i] = s.Campaign("RF", "crc32", ModeHVF, 0)
		}(i, s)
	}
	wg.Wait()

	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("node %d: distributed results diverge from the single-process run", i)
		}
	}
	key, bind, shardPath := distShard(t, nodes[0], dir)
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatalf("merged canonical shard: %v", err)
	}
	if !bytes.Equal(data, refBytes) {
		t.Errorf("merged canonical shard (%d bytes) is not byte-identical to the single-process shard (%d bytes)",
			len(data), len(refBytes))
	}
	j, _ := journal.Open(dir)
	if hasParts, err := j.HasParts(key, bind); err != nil || hasParts {
		t.Errorf("after merge: hasParts=%v err=%v, want no part shards left", hasParts, err)
	}

	// A third node arriving late finds everything journalled: pure load.
	late := distStudy(t, dir, "node-late")
	if res := late.Campaign("RF", "crc32", ModeHVF, 0); !reflect.DeepEqual(res, want) {
		t.Error("late node: journal-served distributed results diverge")
	}
}
