package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"bpms/internal/expr"
	"bpms/internal/fault"
	"bpms/internal/model"
	"bpms/internal/storage"
)

func openStreamingFixture(t *testing.T, dir string, cfg Config) (*Engine, *storage.FileJournal) {
	t.Helper()
	j, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if cfg.Snapshots == nil {
		sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Snapshots = sn
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	return e, j
}

// TestStreamingSnapshotRecoverRoundtrip: a streaming snapshot plus a
// journal suffix recover identically under serial and parallel decode,
// including variables and statuses.
func TestStreamingSnapshotRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	const before, after = 40, 25
	for i := 0; i < before; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if j.FirstIndex() <= 1 {
		t.Fatal("snapshot did not truncate the journal prefix")
	}
	for i := before; i < before+after; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := e.Instances()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := New(Config{Journal: j2, Snapshots: sn, RecoveryWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotIDs := e2.Instances()
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("workers=%d: recovered %d instances, want %d", workers, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("workers=%d: instance %d = %q, want %q", workers, i, gotIDs[i], wantIDs[i])
			}
		}
		// Spot-check one instance's recovered vars and status.
		v, err := e2.Instance(wantIDs[0])
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusCompleted {
			t.Fatalf("workers=%d: status = %s", workers, v.Status)
		}
		j2.Close()
	}
}

// TestSnapshotWhileAppending drives concurrent StartInstance traffic
// against repeated Snapshot calls (run with -race: the streaming
// writer locks each instance briefly while writers mutate others), then
// proves a cold start recovers every acknowledged instance.
func TestSnapshotWhileAppending(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("seq-3-%d", w*per+i+1)
				if _, err := e.StartInstanceID("seq-3", id, map[string]any{"w": w}); err != nil {
					t.Errorf("start %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := e.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	// One final snapshot over quiesced state, then cold start.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Journal: j2, Snapshots: sn})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e2.Instances()); got != writers*per {
		t.Fatalf("recovered %d instances, want %d", got, writers*per)
	}
}

// TestRequestSnapshotRearm: a trigger arriving while a snapshot is in
// flight is not dropped — the pending flag re-runs the loop, so the
// journal prefix those appends owed a snapshot to is eventually
// compacted. (The seed code consumed the trigger and reset the
// counter, losing it.)
func TestRequestSnapshotRearm(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	defer j.Close()
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartInstance("seq-3", nil); err != nil {
		t.Fatal(err)
	}
	// Claim the in-flight slot by hand: requestSnapshot must fall into
	// the pending path and the release must re-run the loop.
	if !e.snapshotting.CompareAndSwap(false, true) {
		t.Fatal("in-flight flag already set")
	}
	e.requestSnapshot()
	if !e.snapshotPending.Load() {
		t.Fatal("trigger during in-flight snapshot was dropped, not re-armed")
	}
	// Release the claim the way snapshotLoop does: run the snapshot,
	// clear the flag, and honour the pending trigger.
	e.snapshotLoop()
	if e.snapshotPending.Load() {
		t.Fatal("pending trigger not consumed by the follow-up snapshot")
	}
	sn, err := e.snapshots.LatestSnapshot()
	if err != nil || sn == nil {
		t.Fatalf("no snapshot written for re-armed trigger: sn=%v err=%v", sn, err)
	}
}

// commitCounter is a filesystem that counts the renames publishing
// each snapshot file, i.e. the committed snapshots per index.
type commitCounter struct {
	fault.FS
	mu      sync.Mutex
	commits map[string]int
}

func (c *commitCounter) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err == nil {
		c.mu.Lock()
		c.commits[filepath.Base(newpath)]++
		c.mu.Unlock()
	}
	return err
}

// TestConcurrentSnapshotsDoNotFailStop races every snapshot trigger
// (the append-count trigger, the time-based TrySnapshot, admin
// Snapshot calls) against starts and against each other on an idle
// journal. Snapshots of one engine serialize and skip an index already
// covered, so no trigger loses a race for a temp file or a rename and
// fail-stops the healthy shard, and each index commits exactly once.
func TestConcurrentSnapshotsDoNotFailStop(t *testing.T) {
	dir := t.TempDir()
	fs := &commitCounter{FS: fault.OS, commits: map[string]int{}}
	sn, err := storage.OpenSnapshotStoreFS(filepath.Join(dir, "snapshots"), 2, fs)
	if err != nil {
		t.Fatal(err)
	}
	e, j := openStreamingFixture(t, dir, Config{Snapshots: sn, SnapshotEvery: 3})
	defer j.Close()
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	run := func(n int, fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(i)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(30, func(i int) {
			if _, err := e.StartInstance("seq-3", nil); err != nil {
				t.Errorf("start: %v", err)
			}
		})
	}
	for a := 0; a < 2; a++ {
		run(10, func(int) {
			if err := e.Snapshot(); err != nil {
				t.Errorf("admin snapshot: %v", err)
			}
		})
	}
	run(50, func(int) { e.TrySnapshot() })
	wg.Wait()
	// The idle journal: every trigger now asks for the same index.
	for a := 0; a < 4; a++ {
		run(1, func(int) {
			if err := e.Snapshot(); err != nil {
				t.Errorf("idle snapshot: %v", err)
			}
		})
		run(1, func(int) { e.TrySnapshot() })
	}
	wg.Wait()
	e.Close() // waits for trigger-started snapshots
	if e.Degraded() {
		reason, _ := e.DegradedReason()
		t.Fatalf("healthy shard fail-stopped: %s", reason)
	}
	last := snapshotName(j.LastIndex())
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.commits[last] != 1 {
		t.Errorf("snapshot at the final index %s committed %d times, want 1", last, fs.commits[last])
	}
	for name, n := range fs.commits {
		if n != 1 {
			t.Errorf("%s committed %d times, want 1", name, n)
		}
	}
}

func snapshotName(index uint64) string { return fmt.Sprintf("snap-%020d.snap", index) }
