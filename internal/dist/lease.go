// Package dist is the distributed campaign layer: it shards the chunks of
// one fault-injection campaign across N worker processes (and machines)
// with nothing but the shared journal directory as the coordination
// substrate. Lease files in it arbitrate chunk ownership; part shards in
// it carry the results.
//
// The design leans entirely on two properties the rest of the codebase
// already guarantees:
//
//   - Chunk geometry is deterministic and timing-independent
//     (campaign.ChunkSize): every process derives identical [lo, hi)
//     fault ranges from the shared (fault-list length, fleet size) pair,
//     so a lease named "chunk-lo-hi" means the same faults on every node.
//   - Per-fault results are deterministic regardless of which process
//     simulates them, so duplicated simulation — two workers racing a
//     stale lease — is wasted work, never corruption: the merge dedups by
//     fault index and either copy is the copy.
//
// Leases are therefore a performance mechanism, not a safety mechanism.
// Safety (no lost or corrupt results) comes from the journal: each worker
// appends to its own checksummed part shard, the merge step consolidates
// parts into the canonical shard only after verifying full index coverage,
// and a killed worker is just a resumed study. See docs/DISTRIBUTED.md for
// the topology and failure matrix.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// leaseRecord is the JSON body of a lease file.
type leaseRecord struct {
	Owner string `json:"owner"`
	// Expiry is the heartbeat deadline in Unix nanoseconds; a lease whose
	// expiry has passed is stale and free to take over.
	Expiry int64 `json:"expiry_unix_ns"`
}

// FileLeaser is the chunk-ownership arbiter of one campaign fleet: it
// coordinates through atomic lease files under a shared directory, so
// every worker whose journal points at the same (network) filesystem
// needs no server. Resource names are slash-separated paths
// ("<shardID>.chunk-0-125", "slots/slot-3"); owners are stable node
// identities.
//
// Semantics:
//
//   - TryAcquire is first-writer-wins. A lease whose heartbeat expired is
//     free (stale-lease takeover); a torn or empty lease record is free; a
//     resource with a done marker is never acquirable again.
//   - TryAcquire by the current holder renews the lease (a restarted
//     worker with a stable owner name reclaims its own leases instantly).
//   - Heartbeat extends a held lease by ttl; heartbeating a lease that no
//     longer exists re-creates it.
//   - Release with done=true writes a persistent done marker so every
//     later TryAcquire refuses the resource; done=false frees it for the
//     next claimant.
//   - Reset deletes all lease and done state under a name prefix — called
//     by the merge winner once the canonical shard is durable, so finished
//     chunk markers do not outlive the parts they described.
//
// Errors are I/O failures (an unwritable lease directory): callers treat
// them as "not acquired" and retry, never as campaign failures.
//
// Protocol, per resource name:
//
//   - root/<name>.lease — the lease record. A record is always written
//     complete to a temp file first and then published: hard-linked into
//     place to create a lease (the link fails if one exists, so exactly
//     one creator wins) or renamed over it to renew one. Readers never see
//     a half-written record.
//   - root/<name>.done — the persistent done marker.
//   - takeover: a claimant that reads a stale (or torn/empty) lease
//     creates root/<name>.lease.takeover-<hash of the bytes it read> the
//     same way. Exactly one claimant that saw those bytes wins it; the
//     winner re-reads the lease and, if it is unchanged, renames its own
//     record over it. The claim is a lease record too, so a claimant that
//     crashed mid-takeover cannot wedge the resource: its claim expires,
//     and the next claimant deletes it under a claim on the claim's bytes.
//
// A file system offers no compare-and-swap, so the re-read and the rename
// are two steps, and a late process can act between them. If the owner
// heartbeats there, its renewal is lost and it keeps working until its
// next heartbeat reports the new holder. If the owner releases and a new
// claimant creates a fresh lease there, both that claimant and the
// takeover winner get true. Both need a process late by the width of that
// window; leases only arbitrate efficiency, and duplicated simulation is
// absorbed by the deterministic merge.
type FileLeaser struct {
	root string
	// now is the clock; a variable so tests can run takeover scenarios
	// without real TTL waits.
	now func() time.Time

	// onSteal/onExpired, when non-nil, observe won takeovers and
	// expired-lease sightings (Run wires them to avgi_dist_* counters
	// before the leaser is shared).
	onSteal   func()
	onExpired func()
}

// NewFileLeaser returns a leaser rooted at dir (created on demand).
func NewFileLeaser(dir string) *FileLeaser {
	return &FileLeaser{root: dir, now: time.Now}
}

// SetClock replaces the staleness clock (tests).
func (l *FileLeaser) SetClock(now func() time.Time) { l.now = now }

func (l *FileLeaser) leasePath(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(name)+".lease")
}

func (l *FileLeaser) donePath(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(name)+".done")
}

// read parses a lease file. ok is false for missing, torn or empty
// records — all of which mean "free" to a claimant.
func (l *FileLeaser) read(path string) (leaseRecord, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, false
	}
	return parseLease(data)
}

func parseLease(data []byte) (leaseRecord, bool) {
	var rec leaseRecord
	if json.Unmarshal(data, &rec) != nil || rec.Owner == "" {
		return leaseRecord{}, false
	}
	return rec, true
}

// stage writes a complete lease record to a fresh temp file next to path
// and returns the temp file's name.
func (l *FileLeaser) stage(path, owner string, ttl time.Duration) (string, error) {
	data, err := json.Marshal(leaseRecord{Owner: owner, Expiry: l.now().Add(ttl).UnixNano()})
	if err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("dist: %w", err)
	}
	return f.Name(), nil
}

// write atomically replaces path with a fresh lease record.
func (l *FileLeaser) write(path, owner string, ttl time.Duration) error {
	tmp, err := l.stage(path, owner, ttl)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// create publishes a fresh lease record at path only if none exists;
// ok=false means one already does.
func (l *FileLeaser) create(path, owner string, ttl time.Duration) (bool, error) {
	tmp, err := l.stage(path, owner, ttl)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		if errors.Is(err, os.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("dist: %w", err)
	}
	return true, nil
}

// takeoverClaim names the claim file for taking over the lease at path
// whose current bytes are data.
func takeoverClaim(path string, data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%s.takeover-%016x", path, h.Sum64())
}

// TryAcquire claims name for owner for ttl; ok reports whether it is now
// owner's.
func (l *FileLeaser) TryAcquire(name, owner string, ttl time.Duration) (bool, error) {
	if done, err := l.IsDone(name); done || err != nil {
		return false, err
	}
	path := l.leasePath(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	if ok, err := l.create(path, owner, ttl); ok || err != nil {
		return ok, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, nil // released since the create: free next round
	}
	rec, readable := parseLease(data)
	switch {
	case readable && rec.Owner == owner:
		// Our own lease (a restarted process, or the previous round):
		// renew in place.
		return true, l.write(path, owner, ttl)
	case readable && l.now().UnixNano() < rec.Expiry:
		return false, nil // live, someone else's
	}
	if readable && l.onExpired != nil {
		l.onExpired()
	}
	// Stale or torn: claim the takeover of exactly these bytes.
	claim := takeoverClaim(path, data)
	if ok, err := l.create(claim, owner, ttl); !ok || err != nil {
		if err == nil {
			l.clearAbandoned(claim, owner, ttl)
		}
		return false, err
	}
	defer os.Remove(claim)
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, data) {
		return false, nil // renewed or released since our read
	}
	if err := l.write(path, owner, ttl); err != nil {
		return false, err
	}
	if l.onSteal != nil {
		l.onSteal()
	}
	return true, nil
}

// clearAbandoned deletes the takeover claim at path if its claimant let
// it expire, freeing the takeover for the next round. The delete is
// arbitrated like a takeover, by a claim on the claim's bytes, so a racer
// that read the expired claim cannot delete a fresh one created after it;
// an abandoned claim on a claim is cleared the same way, one level down.
func (l *FileLeaser) clearAbandoned(path, owner string, ttl time.Duration) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	if c, ok := parseLease(data); ok && l.now().UnixNano() < c.Expiry {
		return // live: its claimant is still working
	}
	claim := takeoverClaim(path, data)
	if ok, err := l.create(claim, owner, ttl); err != nil {
		return
	} else if !ok {
		l.clearAbandoned(claim, owner, ttl)
		return
	}
	defer os.Remove(claim)
	if now, err := os.ReadFile(path); err == nil && bytes.Equal(now, data) {
		os.Remove(path)
	}
}

// Heartbeat extends owner's lease on name by ttl. A heartbeat on a
// vanished lease re-creates it, which covers a lease directory wiped
// mid-run.
func (l *FileLeaser) Heartbeat(name, owner string, ttl time.Duration) error {
	path := l.leasePath(name)
	if rec, ok := l.read(path); ok && rec.Owner != owner && l.now().UnixNano() < rec.Expiry {
		return fmt.Errorf("dist: lease %s now held by %s", name, rec.Owner)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return l.write(path, owner, ttl)
}

// Release gives up owner's lease on name; done also marks the resource
// finished for good.
func (l *FileLeaser) Release(name, owner string, done bool) error {
	if done {
		f, err := os.OpenFile(l.donePath(name), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		fmt.Fprintf(f, "{\"owner\":%q}\n", owner)
		if err := f.Close(); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
	path := l.leasePath(name)
	if rec, ok := l.read(path); ok && rec.Owner == owner {
		os.Remove(path)
	}
	return nil
}

// IsDone reports whether name carries a done marker.
func (l *FileLeaser) IsDone(name string) (bool, error) {
	if _, err := os.Stat(l.donePath(name)); err == nil {
		return true, nil
	} else if errors.Is(err, os.ErrNotExist) {
		return false, nil
	} else {
		return false, fmt.Errorf("dist: %w", err)
	}
}

// Reset deletes every lease, done marker and takeover remnant whose name
// starts with prefix.
func (l *FileLeaser) Reset(prefix string) error {
	base := filepath.Join(l.root, filepath.FromSlash(prefix))
	dir, stem := filepath.Split(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("dist: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), stem) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("dist: %w", err)
		}
	}
	return nil
}
