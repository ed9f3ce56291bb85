package dist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/journal"
	"avgi/internal/prog"
)

// fakeClock is a settable clock for lease-staleness tests: takeover
// scenarios run instantly instead of sleeping through real TTLs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// leaserContract runs the lease semantics documented on FileLeaser.
func leaserContract(t *testing.T, l *FileLeaser, advance func(time.Duration)) {
	t.Helper()
	const ttl = 10 * time.Second

	// First-writer-wins; a live lease refuses other owners.
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("fresh acquire: ok=%v err=%v", ok, err)
	}
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "bob", ttl); err != nil || ok {
		t.Fatalf("acquire of a live foreign lease: ok=%v err=%v", ok, err)
	}
	// The holder itself renews.
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("holder re-acquire must renew: ok=%v err=%v", ok, err)
	}
	// Heartbeat by the holder extends; by a stranger against a live lease
	// it fails.
	if err := l.Heartbeat("shard.chunk-000000-000010", "alice", ttl); err != nil {
		t.Fatalf("holder heartbeat: %v", err)
	}
	if err := l.Heartbeat("shard.chunk-000000-000010", "bob", ttl); err == nil {
		t.Fatal("stranger heartbeat against a live lease must fail")
	}

	// Stale takeover: past the TTL the lease is free to anyone.
	advance(ttl + time.Second)
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "bob", ttl); err != nil || !ok {
		t.Fatalf("stale takeover: ok=%v err=%v", ok, err)
	}
	if ok, _ := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); ok {
		t.Fatal("the deposed owner must not re-acquire a live stolen lease")
	}

	// Release done=false frees the resource.
	if err := l.Release("shard.chunk-000000-000010", "bob", false); err != nil {
		t.Fatalf("release: %v", err)
	}
	if ok, err := l.TryAcquire("shard.chunk-000000-000010", "alice", ttl); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}

	// Release done=true is permanent: no owner may ever claim again.
	if err := l.Release("shard.chunk-000000-000010", "alice", true); err != nil {
		t.Fatalf("done release: %v", err)
	}
	if done, err := l.IsDone("shard.chunk-000000-000010"); err != nil || !done {
		t.Fatalf("IsDone after done release: done=%v err=%v", done, err)
	}
	if ok, _ := l.TryAcquire("shard.chunk-000000-000010", "carol", ttl); ok {
		t.Fatal("a done resource must refuse every acquire")
	}

	// Reset clears both leases and done markers under the prefix — and
	// nothing else.
	if ok, _ := l.TryAcquire("shard.merge", "alice", ttl); !ok {
		t.Fatal("merge lease acquire")
	}
	if err := l.Reset("shard.chunk-"); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if done, _ := l.IsDone("shard.chunk-000000-000010"); done {
		t.Fatal("done marker must not survive Reset of its prefix")
	}
	if ok, _ := l.TryAcquire("shard.chunk-000000-000010", "carol", ttl); !ok {
		t.Fatal("resource must be claimable again after Reset")
	}
	if ok, _ := l.TryAcquire("shard.merge", "bob", ttl); ok {
		t.Fatal("Reset of chunk prefix must not free the merge lease")
	}
}

func TestFileLeaserContract(t *testing.T) {
	clk := newFakeClock()
	l := NewFileLeaser(filepath.Join(t.TempDir(), "leases"))
	l.SetClock(clk.Now)
	leaserContract(t, l, clk.Advance)
}

func TestFileLeaserTornAndEmptyLeases(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leases")
	l := NewFileLeaser(dir)
	var expired atomic.Int64
	l.onExpired = func() { expired.Add(1) }

	for _, body := range []string{"", "{\"owner\":\"ali", "not json at all"} {
		name := fmt.Sprintf("torn-%d", len(body))
		path := l.leasePath(name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		// A torn or empty lease record — a claimant crashed mid-create —
		// is indistinguishable from abandonment and must read as free.
		if ok, err := l.TryAcquire(name, "bob", time.Minute); err != nil || !ok {
			t.Fatalf("lease with body %q: ok=%v err=%v (torn leases must be free)", body, ok, err)
		}
	}
	if expired.Load() != 0 {
		t.Error("torn leases must not count as expired (they never had a valid expiry)")
	}
}

func TestFileLeaserTakeoverHooks(t *testing.T) {
	clk := newFakeClock()
	l := NewFileLeaser(filepath.Join(t.TempDir(), "leases"))
	l.SetClock(clk.Now)
	var stolen, expired atomic.Int64
	l.onSteal, l.onExpired = func() { stolen.Add(1) }, func() { expired.Add(1) }

	if ok, _ := l.TryAcquire("x", "alice", time.Second); !ok {
		t.Fatal("seed acquire")
	}
	clk.Advance(2 * time.Second)
	if ok, _ := l.TryAcquire("x", "bob", time.Second); !ok {
		t.Fatal("stale takeover")
	}
	if stolen.Load() != 1 || expired.Load() != 1 {
		t.Errorf("takeover hooks: stolen=%d expired=%d, want 1/1", stolen.Load(), expired.Load())
	}
}

// TestFileLeaserAbandonedTakeoverClaim pins that a claimant which died
// mid-takeover cannot wedge a lease: its claim blocks others only until the
// claim itself expires.
func TestFileLeaserAbandonedTakeoverClaim(t *testing.T) {
	clk := newFakeClock()
	l := NewFileLeaser(filepath.Join(t.TempDir(), "leases"))
	l.SetClock(clk.Now)
	if ok, _ := l.TryAcquire("x", "alice", time.Second); !ok {
		t.Fatal("seed acquire")
	}
	clk.Advance(2 * time.Second)
	// carol claimed the takeover of alice's stale lease, then died.
	path := l.leasePath("x")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := l.create(takeoverClaim(path, data), "carol", time.Minute); !ok || err != nil {
		t.Fatalf("plant claim: ok=%v err=%v", ok, err)
	}
	if ok, _ := l.TryAcquire("x", "bob", time.Second); ok {
		t.Fatal("a live takeover claim must block other claimants")
	}
	clk.Advance(2 * time.Minute)
	ok1, _ := l.TryAcquire("x", "bob", time.Second)
	ok2, _ := l.TryAcquire("x", "bob", time.Second)
	if !ok1 && !ok2 {
		t.Fatal("an expired takeover claim still blocks the lease")
	}
}

// TestFileLeaserAbandonedTakeoverClaimRace races many claimants over a
// stale lease whose takeover claim was abandoned: clearing the expired
// claim and taking over the lease must still yield exactly one winner.
func TestFileLeaserAbandonedTakeoverClaimRace(t *testing.T) {
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "leases")
	seed := NewFileLeaser(dir)
	seed.SetClock(clk.Now)
	if ok, _ := seed.TryAcquire("x", "alice", time.Second); !ok {
		t.Fatal("seed acquire")
	}
	clk.Advance(2 * time.Second)
	path := seed.leasePath("x")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := seed.create(takeoverClaim(path, data), "carol", time.Second); !ok || err != nil {
		t.Fatalf("plant claim: ok=%v err=%v", ok, err)
	}
	clk.Advance(2 * time.Second)

	const racers, attempts = 16, 4
	var wins atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := NewFileLeaser(dir)
			l.SetClock(clk.Now)
			<-start
			for a := 0; a < attempts; a++ {
				if ok, err := l.TryAcquire("x", fmt.Sprintf("racer-%02d", i), time.Minute); err != nil {
					t.Errorf("racer %d: %v", i, err)
					return
				} else if ok {
					wins.Add(1)
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if w := wins.Load(); w != 1 {
		t.Errorf("%d winners clearing an abandoned claim, want exactly 1", w)
	}
}

// TestFileLeaserRace pins the create-or-fail arbitration: many goroutines racing
// one fresh lease yield exactly one winner, and racing one *stale* lease
// (the takeover-claim path) also yields exactly one winner.
func TestFileLeaserRace(t *testing.T) {
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "leases")

	race := func(name string) int {
		const racers = 16
		var wins atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l := NewFileLeaser(dir) // one leaser per "process"
				l.SetClock(clk.Now)
				<-start
				if ok, err := l.TryAcquire(name, fmt.Sprintf("racer-%02d", i), time.Minute); err != nil {
					t.Errorf("racer %d: %v", i, err)
				} else if ok {
					wins.Add(1)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		return int(wins.Load())
	}

	if w := race("fresh"); w != 1 {
		t.Errorf("%d winners racing a fresh lease, want exactly 1", w)
	}

	// Seed a stale lease, then race the takeover.
	seed := NewFileLeaser(dir)
	seed.SetClock(clk.Now)
	if ok, _ := seed.TryAcquire("stale", "dead-node", time.Second); !ok {
		t.Fatal("seed stale lease")
	}
	clk.Advance(time.Hour)
	if w := race("stale"); w != 1 {
		t.Errorf("%d winners racing a stale takeover, want exactly 1", w)
	}
}

// --- dist.Run integration -------------------------------------------------

func newDistRunner(t *testing.T) *campaign.Runner {
	t.Helper()
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigA72()
	r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func distKey() journal.Key {
	return journal.Key{Structure: "RF", Workload: "crc32", Mode: "hvf"}
}

func distBind(faults int) journal.Binding {
	return journal.Binding{Machine: "a72", Variant: "base", ProgramHash: 0xfeed, Seed: 5, Faults: faults}
}

// runFleet executes one campaign as n concurrent in-process "nodes" —
// goroutines with distinct owners sharing a journal directory — and
// returns each node's view plus the canonical shard bytes after merge.
func runFleet(t *testing.T, r *campaign.Runner, n int) ([]byte, [][]campaign.Result) {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faults := r.FaultList("RF", 24, 5)
	key, bind := distKey(), distBind(len(faults))

	views := make([][]campaign.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			views[node], errs[node] = Run(Config{
				Journal:      j,
				Owner:        fmt.Sprintf("node-%d", node),
				Fleet:        2 * n,
				LocalWorkers: 2,
				TTL:          2 * time.Second,
				Poll:         10 * time.Millisecond,
				Sync:         journal.SyncEvery,
			}, r, faults, key, bind, campaign.ModeHVF, 0)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	// The canonical shard must exist, be complete, and stand alone — the
	// merge removes every part.
	if hasParts, err := j.HasParts(key, bind); err != nil || hasParts {
		t.Fatalf("after merge: hasParts=%v err=%v", hasParts, err)
	}
	canon := filepath.Join(dir, filepath.FromSlash(j.ShardID(key, bind)))
	data, err := os.ReadFile(canon)
	if err != nil {
		t.Fatalf("canonical shard: %v", err)
	}
	return data, views
}

// TestDistRunByteIdentity is the tentpole guarantee: the merged canonical
// shard is byte-identical whether the campaign ran on one, two or four
// nodes, and every node's returned results equal the plain in-process run.
func TestDistRunByteIdentity(t *testing.T) {
	r := newDistRunner(t)
	faults := r.FaultList("RF", 24, 5)
	serial := r.Run(faults, campaign.ModeHVF, 0, 2)

	var ref []byte
	for _, nodes := range []int{1, 2, 4} {
		data, views := runFleet(t, r, nodes)
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Errorf("%d-node canonical shard differs from the 1-node shard (%d vs %d bytes)",
				nodes, len(data), len(ref))
		}
		for node, view := range views {
			if !reflect.DeepEqual(view, serial) {
				t.Errorf("%d-node fleet, node %d: merged view diverges from the serial run", nodes, node)
			}
		}
	}
}

// TestDistRunDeadNodeTakeover is the SIGKILL story: a node that journalled
// part of its work and died (stale leases, orphaned part shard) must not
// stall the fleet — a fresh node takes its chunks over after the TTL and
// the merge still folds the dead node's durable results in byte-identically.
func TestDistRunDeadNodeTakeover(t *testing.T) {
	r := newDistRunner(t)
	faults := r.FaultList("RF", 24, 5)
	key, bind := distKey(), distBind(len(faults))
	serial := r.Run(faults, campaign.ModeHVF, 0, 2)

	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The dead node journalled its first chunk before dying...
	pw, err := j.PartWriter(key, bind, "dead-node", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pw.Append(i, serial[i])
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and died holding chunk leases that have since gone stale, plus a
	// torn lease from a crash mid-heartbeat.
	past := newFakeClock()
	stale := NewFileLeaser(filepath.Join(dir, "leases"))
	stale.SetClock(past.Now)
	shard := j.ShardID(key, bind)
	if ok, _ := stale.TryAcquire(chunkLease(shard, 0, 3), "dead-node", time.Millisecond); !ok {
		t.Fatal("seed stale lease")
	}
	torn := stale.leasePath(chunkLease(shard, 3, 6))
	if err := os.WriteFile(torn, []byte("{\"owner\":\"dead"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Run(Config{
		Journal:      j,
		Owner:        "survivor",
		Fleet:        4,
		LocalWorkers: 2,
		TTL:          time.Second,
		Poll:         10 * time.Millisecond,
	}, r, faults, key, bind, campaign.ModeHVF, 0)
	if err != nil {
		t.Fatalf("survivor run: %v", err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatal("survivor's merged view diverges from the serial run")
	}

	canon, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(shard)))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runFleet(t, r, 1)
	if !bytes.Equal(canon, ref) {
		t.Error("canonical shard after dead-node takeover differs from a clean single-node run")
	}
}
