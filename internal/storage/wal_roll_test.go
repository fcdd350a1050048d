package storage

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bpms/internal/fault"
)

// TestRollSyncsOutgoingSegment verifies that rolling to a new segment
// leaves the outgoing segment complete on disk even when the sync
// policy never fsyncs: every record in a non-active segment must be
// readable directly from the file, without Sync or Close.
func TestRollSyncsOutgoingSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload := bytes.Repeat([]byte("z"), 40)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	segments := append([]uint64(nil), j.segments...)
	activeBase := j.activeBase
	j.mu.Unlock()
	if len(segments) < 3 {
		t.Fatalf("want >=3 segments for a meaningful roll test, got %d", len(segments))
	}
	// Every index below the active segment's base must be present in
	// the rolled segments' files.
	seen := map[uint64]bool{}
	for _, base := range segments {
		if base == activeBase {
			continue
		}
		if _, _, err := j.scanSegment(base, func(index uint64, _ []byte) error {
			seen[index] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for idx := uint64(1); idx < activeBase; idx++ {
		if !seen[idx] {
			t.Fatalf("record %d missing from rolled segments (active base %d)", idx, activeBase)
		}
	}
}

// TestDropBeforeFirstIndexBoundaries checks the invariant that after
// any DropBefore, FirstIndex equals the first index Replay delivers
// (or 0 when the journal is empty) — including drops landing exactly
// on segment boundaries and the drop-everything edge.
func TestDropBeforeFirstIndexBoundaries(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenFileJournal(dir, Options{SegmentSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		payload := bytes.Repeat([]byte("z"), 40)
		for i := 0; i < 30; i++ {
			if _, err := j.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		j.mu.Lock()
		bases := append([]uint64(nil), j.segments...)
		j.mu.Unlock()
		// Exercise each segment boundary exactly, one past it, and the
		// past-the-end edge.
		var cuts []uint64
		for _, b := range bases {
			cuts = append(cuts, b, b+1)
		}
		cuts = append(cuts, j.LastIndex()+1)
		for _, upTo := range cuts {
			if err := j.DropBefore(upTo); err != nil {
				t.Fatal(err)
			}
			var first uint64
			if err := j.Replay(1, func(i uint64, _ []byte) error {
				if first == 0 {
					first = i
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if j.FirstIndex() != first {
				t.Fatalf("DropBefore(%d): FirstIndex=%d but replay starts at %d", upTo, j.FirstIndex(), first)
			}
			if first > upTo {
				t.Fatalf("DropBefore(%d): lost retained records, replay starts at %d", upTo, first)
			}
		}
	})
	t.Run("mem-all-dropped", func(t *testing.T) {
		j := NewMemJournal()
		for i := 0; i < 5; i++ {
			j.Append([]byte("x"))
		}
		if err := j.DropBefore(6); err != nil {
			t.Fatal(err)
		}
		if j.FirstIndex() != 0 {
			t.Fatalf("FirstIndex=%d after dropping everything, want 0", j.FirstIndex())
		}
		idx, err := j.Append([]byte("y"))
		if err != nil {
			t.Fatal(err)
		}
		if j.FirstIndex() != idx {
			t.Fatalf("FirstIndex=%d after re-seeding append %d", j.FirstIndex(), idx)
		}
	})
}

// blockingRemoveFS holds every Remove until released, like a slow
// unlink of a large segment.
type blockingRemoveFS struct {
	fault.FS
	entered chan struct{}
	release chan struct{}
}

func (b *blockingRemoveFS) Remove(name string) error {
	b.entered <- struct{}{}
	<-b.release
	return b.FS.Remove(name)
}

// TestDropBeforeUnlinksOutsideLock: while DropBefore is stuck removing
// a compacted segment, durable appends (group commit included) and
// replays still complete, because the journal lock is not held across
// the unlink.
func TestDropBeforeUnlinksOutsideLock(t *testing.T) {
	fs := &blockingRemoveFS{FS: fault.OS, entered: make(chan struct{}, 8), release: make(chan struct{})}
	j, err := OpenFileJournal(t.TempDir(), Options{SegmentSize: 128, Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fs.release) }) }
	defer release() // before Close, even when the test fails
	payload := bytes.Repeat([]byte("z"), 40)
	for i := 0; i < 10; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	upTo := j.LastIndex()
	dropped := make(chan error, 1)
	go func() { dropped <- j.DropBefore(upTo) }()
	<-fs.entered // the first unlink has started and is blocked
	appended := make(chan error, 1)
	go func() {
		_, err := j.AppendDurable(payload)
		if err == nil {
			err = j.Replay(j.FirstIndex(), func(uint64, []byte) error { return nil })
		}
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendDurable blocked behind DropBefore's unlink")
	}
	release()
	if err := <-dropped; err != nil {
		t.Fatal(err)
	}
	if first := j.FirstIndex(); first > upTo || first == 1 {
		t.Errorf("FirstIndex = %d after DropBefore(%d)", first, upTo)
	}
}
