package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpms/internal/fault"
)

// obs handles arrive through Options.Metrics (see storage.go); the
// hot-path cost when uninstrumented is one nil check per site.

// Record layout on disk:
//
//	[4B little-endian payload length]
//	[4B CRC32-Castagnoli over index+payload]
//	[8B little-endian record index]
//	[payload bytes]
//
// Segment files are named wal-<firstIndex>.log with a zero-padded
// 20-digit first index, so lexical order equals index order.

const recordHeader = 4 + 4 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileJournal is a durable Journal over segmented append-only files.
type FileJournal struct {
	dir  string
	opts Options

	mu          sync.Mutex
	active      fault.File
	activeBase  uint64 // first index of the active segment
	activeSize  int64
	activeBuf   *bufio.Writer
	segments    []uint64 // first indices of all segments, sorted
	nextIndex   uint64
	firstIndex  uint64 // oldest retained index (0 when empty)
	sinceSync   int
	syncedIndex uint64 // newest index known to be on stable storage
	waiters     []commitWaiter
	closed      bool
	appendedAny bool

	// Group-commit machinery (SyncBatch only).
	commitCh chan struct{} // wakes the committer; buffered, coalescing
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
}

// commitWaiter is one AppendDurable caller parked until its record's
// batch is fsynced.
type commitWaiter struct {
	index uint64
	ch    chan error
}

func segmentName(first uint64) string {
	return fmt.Sprintf("wal-%020d.log", first)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenFileJournal opens (or creates) a journal in dir, recovering from
// any torn tail left by a crash.
func OpenFileJournal(dir string, opts Options) (*FileJournal, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	j := &FileJournal{dir: dir, opts: opts, nextIndex: 1}
	entries, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	for _, e := range entries {
		if base, ok := parseSegmentName(e.Name()); ok {
			j.segments = append(j.segments, base)
		}
	}
	sort.Slice(j.segments, func(a, b int) bool { return j.segments[a] < j.segments[b] })
	if len(j.segments) > 0 {
		j.firstIndex = j.segments[0]
		// Recover the last segment: scan and truncate a torn tail.
		last := j.segments[len(j.segments)-1]
		lastGood, size, err := j.scanSegment(last, nil)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, segmentName(last))
		if err := opts.FS.Truncate(path, size); err != nil {
			return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
		}
		if lastGood == 0 {
			// Empty last segment: next index is its base.
			j.nextIndex = last
		} else {
			j.nextIndex = lastGood + 1
		}
		f, err := opts.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		j.active = f
		j.activeBase = last
		j.activeSize = size
		j.activeBuf = bufio.NewWriterSize(f, 64<<10)
	}
	j.syncedIndex = j.nextIndex - 1 // everything recovered is on disk
	if j.opts.Policy == SyncBatch {
		j.commitCh = make(chan struct{}, 1)
		j.stopCh = make(chan struct{})
		j.doneCh = make(chan struct{})
		go j.committer()
	}
	return j, nil
}

// scanSegment reads a segment, calling fn per valid record, and
// returns the last valid index seen (0 if none) and the byte offset
// just past the last valid record.
func (j *FileJournal) scanSegment(base uint64, fn func(uint64, []byte) error) (uint64, int64, error) {
	path := filepath.Join(j.dir, segmentName(base))
	f, err := j.opts.FS.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: open segment: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	var offset int64
	var lastGood uint64
	hdr := make([]byte, recordHeader)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return lastGood, offset, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		index := binary.LittleEndian.Uint64(hdr[8:16])
		if length > 64<<20 {
			return lastGood, offset, nil // implausible: treat as torn
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return lastGood, offset, nil // torn payload
		}
		h := crc32.New(castagnoli)
		h.Write(hdr[8:16])
		h.Write(payload)
		if h.Sum32() != crc {
			return lastGood, offset, nil // corrupt: truncate here
		}
		if fn != nil {
			if err := fn(index, payload); err != nil {
				return lastGood, offset, err
			}
		}
		lastGood = index
		offset += int64(recordHeader) + int64(length)
	}
}

// Append implements Journal.
func (j *FileJournal) Append(payload []byte) (uint64, error) {
	t0 := j.opts.Metrics.Append.Start()
	j.mu.Lock()
	index, err := j.appendLocked(payload)
	j.mu.Unlock()
	j.opts.Metrics.Append.Since(t0)
	return index, err
}

// AppendDurable implements Journal: the append returns only after the
// record is on stable storage. Under SyncBatch the caller parks on an
// ack channel and the committer goroutine group-commits all records
// buffered since the last fsync; under other policies the append is
// followed by a direct sync when the policy alone does not guarantee
// durability.
func (j *FileJournal) AppendDurable(payload []byte) (uint64, error) {
	t0 := j.opts.Metrics.Append.Start()
	j.mu.Lock()
	index, err := j.appendLocked(payload)
	if err != nil {
		j.mu.Unlock()
		return 0, err
	}
	switch j.opts.Policy {
	case SyncAlways:
		// appendLocked already synced.
		j.mu.Unlock()
		j.opts.Metrics.Append.Since(t0)
		return index, nil
	case SyncBatch:
		ch := make(chan error, 1)
		j.waiters = append(j.waiters, commitWaiter{index: index, ch: ch})
		j.mu.Unlock()
		j.kickCommitter()
		err := <-ch
		j.opts.Metrics.Append.Since(t0)
		return index, err
	default: // SyncNever, SyncEvery
		err := j.syncLocked()
		j.mu.Unlock()
		j.opts.Metrics.Append.Since(t0)
		return index, err
	}
}

// kickCommitter wakes the committer without blocking; a pending wakeup
// coalesces with this one.
func (j *FileJournal) kickCommitter() {
	select {
	case j.commitCh <- struct{}{}:
	default:
	}
}

// committer is the SyncBatch group-commit loop: it fsyncs whenever an
// AppendDurable waiter is parked or the max-latency tick elapses with
// unsynced appends, then wakes every waiter whose record the fsync
// covered.
func (j *FileJournal) committer() {
	defer close(j.doneCh)
	ticker := time.NewTicker(j.opts.BatchMaxDelay)
	defer ticker.Stop()
	for {
		select {
		case <-j.stopCh:
			j.commitBatch()
			return
		case <-j.commitCh:
			j.gather()
			j.commitBatch()
		case <-ticker.C:
			j.commitBatch()
		}
	}
}

// gather lets the batch fill before the fsync: yield the processor
// until no new append arrived between two looks (or the batch is
// full). Without this the scheduler's channel handoff tends to run
// the committer immediately after the first kick, ping-ponging with a
// single writer while the other writers sit in the run queue — batches
// stay near size one and group commit degenerates to sync-per-append.
// A lone writer pays one Gosched (~µs) before its fsync.
func (j *FileJournal) gather() {
	prev := -1
	for i := 0; i < 64; i++ {
		j.mu.Lock()
		n := j.sinceSync
		full := n >= j.opts.BatchMaxRecords
		j.mu.Unlock()
		if full || n == prev {
			return
		}
		prev = n
		runtime.Gosched()
	}
}

// commitBatch runs one group commit: flush the write buffer under the
// lock, fsync OUTSIDE the lock so concurrent appends keep buffering
// into the next batch, then release every waiter the fsync covered.
// Holding the lock across the fsync would cap batches at roughly one
// record — writers could not get their appends in while the disk was
// busy, which is the whole throughput win of group commit.
func (j *FileJournal) commitBatch() {
	j.mu.Lock()
	if j.closed {
		// Close performed the final flush+sync; anything appended
		// before closing is durable.
		j.notifyWaitersLocked(nil)
		j.mu.Unlock()
		return
	}
	if j.sinceSync == 0 && len(j.waiters) == 0 {
		j.mu.Unlock()
		return
	}
	if j.active == nil {
		j.mu.Unlock()
		return
	}
	if err := j.activeBuf.Flush(); err != nil {
		j.notifyWaitersLocked(err)
		j.mu.Unlock()
		return
	}
	f := j.active
	upTo := j.nextIndex - 1
	// These records are in the in-flight commit now; appends arriving
	// during the fsync below restart the counter for the next batch.
	pending := j.sinceSync
	j.sinceSync = 0
	j.mu.Unlock()

	t0 := j.opts.Metrics.Fsync.Start()
	err := f.Sync()
	j.opts.Metrics.Fsync.Since(t0)

	j.mu.Lock()
	if err != nil && j.active != f {
		// The segment rolled while we were fsyncing: rollLocked
		// flushed and fsynced the outgoing file before closing it, so
		// everything up to upTo is durable despite the error from the
		// closed handle.
		err = nil
	}
	if err != nil {
		// Genuine sync failure: fail every parked caller and put the
		// batch back on the unsynced counter so the tick retries it.
		j.sinceSync += pending
		j.notifyWaitersLocked(err)
		j.mu.Unlock()
		return
	}
	if upTo > j.syncedIndex {
		j.syncedIndex = upTo
	}
	// Release only the waiters this fsync covered; later arrivals
	// already kicked the committer again and ride the next batch.
	var done []commitWaiter
	keep := j.waiters[:0]
	for _, w := range j.waiters {
		if w.index <= upTo {
			done = append(done, w)
		} else {
			keep = append(keep, w)
		}
	}
	j.waiters = keep
	j.mu.Unlock()
	for _, w := range done {
		w.ch <- nil
	}
}

// notifyWaitersLocked completes every parked AppendDurable call with
// err. Waiter channels are buffered, so sending under the lock cannot
// block.
func (j *FileJournal) notifyWaitersLocked(err error) {
	for _, w := range j.waiters {
		w.ch <- err
	}
	j.waiters = nil
}

// appendLocked buffers one record and applies the sync policy. Called
// under j.mu.
func (j *FileJournal) appendLocked(payload []byte) (uint64, error) {
	if j.closed {
		return 0, ErrClosed
	}
	recSize := int64(recordHeader) + int64(len(payload))
	if j.active == nil || (j.activeSize > 0 && j.activeSize+recSize > j.opts.SegmentSize) {
		if err := j.rollLocked(); err != nil {
			return 0, err
		}
	}
	index := j.nextIndex
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], index)
	h := crc32.New(castagnoli)
	h.Write(hdr[8:16])
	h.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:8], h.Sum32())
	if _, err := j.activeBuf.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := j.activeBuf.Write(payload); err != nil {
		return 0, err
	}
	j.activeSize += recSize
	j.nextIndex++
	if j.firstIndex == 0 {
		j.firstIndex = index
	}
	j.appendedAny = true
	j.sinceSync++
	switch j.opts.Policy {
	case SyncAlways:
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	case SyncEvery:
		if j.sinceSync >= j.opts.SyncInterval {
			if err := j.syncLocked(); err != nil {
				return 0, err
			}
		}
	case SyncBatch:
		// Bounded batch: a full batch wakes the committer even when no
		// durability ack is pending; otherwise the max-latency tick
		// picks the record up.
		if j.sinceSync >= j.opts.BatchMaxRecords {
			j.kickCommitter()
		}
	}
	return index, nil
}

func (j *FileJournal) rollLocked() error {
	if j.active != nil {
		if err := j.activeBuf.Flush(); err != nil {
			return err
		}
		// Sync before closing: once the segment is rolled, a later
		// explicit Sync() only reaches the new active file, so under
		// SyncEvery/SyncNever this is the last chance to make the
		// outgoing segment's tail durable.
		if err := j.active.Sync(); err != nil {
			return err
		}
		if err := j.active.Close(); err != nil {
			return err
		}
		j.sinceSync = 0
		j.syncedIndex = j.nextIndex - 1
	}
	base := j.nextIndex
	path := filepath.Join(j.dir, segmentName(base))
	f, err := j.opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	j.active = f
	j.activeBase = base
	j.activeSize = 0
	j.activeBuf = bufio.NewWriterSize(f, 64<<10)
	j.segments = append(j.segments, base)
	return nil
}

func (j *FileJournal) syncLocked() error {
	if j.active == nil {
		return nil
	}
	if err := j.activeBuf.Flush(); err != nil {
		return err
	}
	t0 := j.opts.Metrics.Fsync.Start()
	if err := j.active.Sync(); err != nil {
		return err
	}
	j.opts.Metrics.Fsync.Since(t0)
	j.sinceSync = 0
	j.syncedIndex = j.nextIndex - 1
	return nil
}

// Replay implements Journal.
func (j *FileJournal) Replay(from uint64, fn func(uint64, []byte) error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	// Flush buffered appends so the reader sees them.
	if j.activeBuf != nil {
		if err := j.activeBuf.Flush(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	segments := append([]uint64(nil), j.segments...)
	j.mu.Unlock()

	for i, base := range segments {
		// Skip whole segments below from.
		if i+1 < len(segments) && segments[i+1] <= from {
			continue
		}
		_, _, err := j.scanSegment(base, func(index uint64, payload []byte) error {
			if index < from {
				return nil
			}
			return fn(index, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelReplayer is the optional journal extension behind parallel
// boot recovery: decode runs concurrently across segment readers while
// apply observes records in strict index order. FileJournal implements
// it; consumers fall back to Replay when a journal does not.
type ParallelReplayer interface {
	ReplayParallel(from uint64, workers int, decode func(index uint64, payload []byte) (any, error), apply func(index uint64, v any) error) error
}

// segReplay is one segment's decoded records, delivered to the apply
// loop in segment order.
type segReplay struct {
	indexes []uint64
	values  []any
	err     error
}

// ReplayParallel replays records with index >= from like Replay, but
// splits the work: a pool of `workers` readers scans and decodes whole
// segments concurrently (segments are immutable once rolled, so each
// reader owns its file), while the caller's apply callback receives
// every decoded record in strict index order. decode runs on the
// reader pool — its payload is only valid for the duration of the call
// — and its return value is handed to apply unchanged.
//
// Memory stays bounded: at most `workers` segments are in flight
// (decoding or decoded-but-unapplied) at any moment; a segment's
// decoded records are released as soon as apply consumed them.
func (j *FileJournal) ReplayParallel(from uint64, workers int, decode func(index uint64, payload []byte) (any, error), apply func(index uint64, v any) error) error {
	if workers <= 1 {
		return j.Replay(from, func(index uint64, payload []byte) error {
			v, err := decode(index, payload)
			if err != nil {
				return err
			}
			return apply(index, v)
		})
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if j.activeBuf != nil {
		if err := j.activeBuf.Flush(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	segments := append([]uint64(nil), j.segments...)
	j.mu.Unlock()

	// Drop whole segments below from (same rule as Replay): a segment
	// is skippable when its successor starts at or below from.
	start := 0
	for start+1 < len(segments) && segments[start+1] <= from {
		start++
	}
	live := segments[start:]
	if len(live) == 0 {
		return nil
	}

	results := make([]chan *segReplay, len(live))
	for i := range results {
		results[i] = make(chan *segReplay, 1)
	}
	// tickets bounds the in-flight window: the dispatcher takes one per
	// segment it launches, the apply loop returns one per segment it
	// drains. stop aborts dispatch when apply bails early.
	tickets := make(chan struct{}, workers)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i, base := range live {
			select {
			case tickets <- struct{}{}:
			case <-stop:
				return
			}
			go func(i int, base uint64) {
				res := &segReplay{}
				_, _, err := j.scanSegment(base, func(index uint64, payload []byte) error {
					if index < from {
						return nil
					}
					v, err := decode(index, payload)
					if err != nil {
						return err
					}
					res.indexes = append(res.indexes, index)
					res.values = append(res.values, v)
					return nil
				})
				res.err = err
				results[i] <- res
			}(i, base)
		}
	}()

	for i := range live {
		res := <-results[i]
		<-tickets
		if res.err != nil {
			return res.err
		}
		for k, index := range res.indexes {
			if err := apply(index, res.values[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// LastIndex implements Journal.
func (j *FileJournal) LastIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.nextIndex == 1 && !j.appendedAny && len(j.segments) == 0 {
		return 0
	}
	return j.nextIndex - 1
}

// FirstIndex implements Journal.
func (j *FileJournal) FirstIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.firstIndex
}

// DropBefore implements Journal: whole segments entirely below upTo
// are deleted.
func (j *FileJournal) DropBefore(upTo uint64) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	var drop []uint64
	keep := j.segments[:0]
	for i, base := range j.segments {
		// A segment is droppable when the next segment starts at or
		// below upTo (so this one holds only records < upTo) and it is
		// not the active segment.
		droppable := i+1 < len(j.segments) && j.segments[i+1] <= upTo && base != j.activeBase
		if droppable {
			drop = append(drop, base)
			continue
		}
		keep = append(keep, base)
	}
	j.segments = keep
	// Recompute firstIndex from the surviving keep-set rather than
	// patching it conditionally: the oldest retained record is the
	// base of the oldest surviving segment. The empty case is
	// defensive — the active segment always survives today — and
	// mirrors the field's "0 when empty" contract should dropping
	// ever extend to the active segment.
	if len(j.segments) == 0 {
		j.firstIndex = 0
	} else {
		j.firstIndex = j.segments[0]
	}
	j.mu.Unlock()
	// Unlink outside the lock: appends, group commits and durable
	// writers never wait for the filesystem to free old segments. The
	// segments already left the index, so no later replay opens them.
	for _, base := range drop {
		if err := j.opts.FS.Remove(filepath.Join(j.dir, segmentName(base))); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Journal.
func (j *FileJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	err := j.syncLocked()
	if err == nil {
		// Everything buffered is durable now, including records whose
		// AppendDurable callers are parked on the committer.
		j.notifyWaitersLocked(nil)
	}
	return err
}

// SyncedIndex implements Journal.
func (j *FileJournal) SyncedIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncedIndex
}

// Close implements Journal: the committer (when running) is drained
// first so parked AppendDurable calls complete, then the active
// segment is flushed, fsynced, and closed.
func (j *FileJournal) Close() error {
	if j.stopCh != nil {
		j.stopOnce.Do(func() { close(j.stopCh) })
		<-j.doneCh
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if j.active != nil {
		if e := j.activeBuf.Flush(); e != nil {
			err = e
		} else if e := j.active.Sync(); e != nil {
			err = e
		} else {
			j.syncedIndex = j.nextIndex - 1
		}
		if e := j.active.Close(); e != nil && err == nil {
			err = e
		}
	}
	// Any waiter that slipped in between the committer draining and
	// the close is covered by the final sync above.
	j.notifyWaitersLocked(err)
	return err
}

// SegmentCount reports the number of live segment files (for tests and
// the benchmark harness).
func (j *FileJournal) SegmentCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments)
}
