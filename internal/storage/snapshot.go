package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bpms/internal/fault"
)

// SnapshotStore persists point-in-time state images keyed by the
// journal index they cover. Writes are atomic (write to a temp file,
// fsync, rename, fsync the directory), and snapshot contents are
// CRC-protected.
//
// Two on-disk formats coexist:
//
//   - The streaming format (current): a magic header followed by
//     length-prefixed, CRC-protected records appended one at a time
//     through a Writer. Producers and consumers hold one record in
//     memory, never the whole image, so snapshot memory is bounded
//     regardless of instance count.
//   - The legacy single-blob format (seed): [8B index][4B crc][data].
//     Write/Latest keep producing and reading it so existing data dirs
//     and the T16 baseline remain usable; LatestSnapshot reads both.
type SnapshotStore struct {
	dir    string
	fs     fault.FS
	mu     sync.Mutex
	retain int
	tmpSeq atomic.Uint64 // numbers streaming temp files
}

// Streaming snapshot file layout:
//
//	[4B magic "BSN2"][8B little-endian index]
//	then per record: [4B little-endian length][4B crc over payload][payload]
//
// A clean EOF ends the record stream; a torn header, torn payload, or
// CRC mismatch marks the whole snapshot unusable (snapshots are
// written atomically, so a damaged tail means the file is not to be
// trusted) and readers fall back to the next-older snapshot.

var snapshotMagic = [4]byte{'B', 'S', 'N', '2'}

const snapshotRecordHeader = 4 + 4

// OpenSnapshotStore opens (or creates) a snapshot store in dir,
// retaining at most retain snapshots (older ones are pruned on write;
// retain <= 0 means keep 2).
func OpenSnapshotStore(dir string, retain int) (*SnapshotStore, error) {
	return OpenSnapshotStoreFS(dir, retain, fault.OS)
}

// OpenSnapshotStoreFS is OpenSnapshotStore over an explicit
// filesystem; chaos runs pass a fault.Injector.
func OpenSnapshotStoreFS(dir string, retain int, fsys fault.FS) (*SnapshotStore, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create snapshot dir: %w", err)
	}
	if retain <= 0 {
		retain = 2
	}
	return &SnapshotStore{dir: dir, fs: fsys, retain: retain}, nil
}

func snapshotName(index uint64) string {
	return fmt.Sprintf("snap-%020d.snap", index)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[5:len(name)-5], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// syncDir fsyncs the snapshot directory so a just-completed rename
// survives a crash: the rename itself is atomic, but without the
// directory fsync the new directory entry may still be lost.
func (s *SnapshotStore) syncDir() error {
	d, err := s.fs.Open(s.dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// commitTemp atomically publishes a fully written, fsynced temp file
// as the snapshot for index: rename, fsync the directory, prune old
// snapshots. Called under s.mu.
func (s *SnapshotStore) commitTempLocked(tmp string, index uint64) error {
	final := filepath.Join(s.dir, snapshotName(index))
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	return s.pruneLocked()
}

// Write stores a legacy single-blob snapshot covering journal indices
// <= index. New code should stream through Writer; Write remains for
// small images and as the seed-format baseline.
func (s *SnapshotStore) Write(index uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, 12+len(data))
	binary.LittleEndian.PutUint64(buf[0:8], index)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(data, castagnoli))
	copy(buf[12:], data)

	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.commitTempLocked(tmp, index)
}

// SnapshotWriter streams one snapshot: records appended through it go
// straight to a temp file (via a small write buffer), so the producer
// never materialises the full image. Commit atomically publishes the
// snapshot; Abort discards it.
type SnapshotWriter struct {
	store *SnapshotStore
	index uint64
	tmp   string
	f     fault.File
	w     *bufio.Writer
	done  bool
}

// Writer starts a streaming snapshot covering journal indices <=
// index. The caller must finish with Commit or Abort.
func (s *SnapshotStore) Writer(index uint64) (*SnapshotWriter, error) {
	// Unique temp name per writer: two writers at one index must not
	// share a file, or one's rename fails once the other has moved it
	// into place.
	tmp := filepath.Join(s.dir, fmt.Sprintf("snap-%020d-%d.tmp", index, s.tmpSeq.Add(1)))
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create snapshot temp: %w", err)
	}
	w := bufio.NewWriterSize(f, 256<<10)
	var hdr [12]byte
	copy(hdr[0:4], snapshotMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:12], index)
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return nil, err
	}
	return &SnapshotWriter{store: s, index: index, tmp: tmp, f: f, w: w}, nil
}

// Index reports the journal index this snapshot covers.
func (w *SnapshotWriter) Index() uint64 { return w.index }

// Append adds one record to the snapshot stream.
func (w *SnapshotWriter) Append(payload []byte) error {
	if w.done {
		return fmt.Errorf("storage: snapshot writer already closed")
	}
	var hdr [snapshotRecordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Commit flushes and fsyncs the stream, atomically renames it into
// place, fsyncs the directory, and prunes old snapshots.
func (w *SnapshotWriter) Commit() error {
	if w.done {
		return fmt.Errorf("storage: snapshot writer already closed")
	}
	w.done = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		w.store.fs.Remove(w.tmp)
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.store.fs.Remove(w.tmp)
		return err
	}
	if err := w.f.Close(); err != nil {
		w.store.fs.Remove(w.tmp)
		return err
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	return w.store.commitTempLocked(w.tmp, w.index)
}

// Abort discards the in-progress snapshot.
func (w *SnapshotWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	w.store.fs.Remove(w.tmp)
}

func (s *SnapshotStore) indicesLocked() ([]uint64, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

func (s *SnapshotStore) pruneLocked() error {
	idxs, err := s.indicesLocked()
	if err != nil {
		return err
	}
	for len(idxs) > s.retain {
		if err := s.fs.Remove(filepath.Join(s.dir, snapshotName(idxs[0]))); err != nil {
			return err
		}
		idxs = idxs[1:]
	}
	return nil
}

// Latest returns the newest valid legacy-format snapshot blob (highest
// index with a good CRC). ok is false when no usable legacy snapshot
// exists; corrupt or streaming-format snapshots are skipped, falling
// back to older ones. Recovery paths should prefer LatestSnapshot,
// which reads both formats without materialising stream contents.
func (s *SnapshotStore) Latest() (index uint64, data []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idxs, err := s.indicesLocked()
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		buf, err := s.fs.ReadFile(filepath.Join(s.dir, snapshotName(idxs[i])))
		if err != nil || len(buf) < 12 {
			continue
		}
		if [4]byte(buf[0:4]) == snapshotMagic {
			continue // streaming format: not a blob
		}
		idx := binary.LittleEndian.Uint64(buf[0:8])
		crc := binary.LittleEndian.Uint32(buf[8:12])
		payload := buf[12:]
		if crc32.Checksum(payload, castagnoli) != crc {
			continue
		}
		return idx, payload, true, nil
	}
	return 0, nil, false, nil
}

// Snapshot is one on-disk snapshot opened for reading. Legacy blob
// snapshots surface their whole image as a single record.
type Snapshot struct {
	// Index is the journal index the snapshot covers.
	Index uint64
	// Legacy reports the seed single-blob format.
	Legacy bool
	path   string
	fs     fault.FS
}

// LatestSnapshot returns the newest intact snapshot in either format,
// or nil when no usable snapshot exists. Streaming snapshots are
// verified record-by-record (a truncated or corrupt tail disqualifies
// the file); damaged snapshots fall back to the next-older one.
func (s *SnapshotStore) LatestSnapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idxs, err := s.indicesLocked()
	if err != nil {
		return nil, err
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, snapshotName(idxs[i]))
		sn, ok := openSnapshot(s.fs, path)
		if ok {
			return sn, nil
		}
	}
	return nil, nil
}

// openSnapshot validates one snapshot file and describes it. The
// verification pass streams through the file (bounded memory); the
// actual contents are re-read by Iterate.
func openSnapshot(fsys fault.FS, path string) (*Snapshot, bool) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, false
	}
	if [4]byte(hdr[0:4]) != snapshotMagic {
		// Legacy blob: [8B index][4B crc][data], CRC over all data.
		idx := binary.LittleEndian.Uint64(hdr[0:8])
		crc := binary.LittleEndian.Uint32(hdr[8:12])
		h := crc32.New(castagnoli)
		if _, err := io.Copy(h, bufio.NewReaderSize(f, 256<<10)); err != nil {
			return nil, false
		}
		if h.Sum32() != crc {
			return nil, false
		}
		return &Snapshot{Index: idx, Legacy: true, path: path, fs: fsys}, true
	}
	index := binary.LittleEndian.Uint64(hdr[4:12])
	if !scanSnapshotRecords(f, nil) {
		return nil, false
	}
	return &Snapshot{Index: index, path: path, fs: fsys}, true
}

// scanSnapshotRecords reads streaming records from r until EOF,
// verifying every CRC; fn (when non-nil) receives each payload, which
// is only valid for the duration of the call. It reports whether the
// stream ended cleanly.
func scanSnapshotRecords(r io.Reader, fn func(payload []byte) error) bool {
	br := bufio.NewReaderSize(r, 256<<10)
	var hdr [snapshotRecordHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err == io.EOF // clean end vs torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > 256<<20 {
			return false // implausible length: treat as corrupt
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return false // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return false
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return true // caller error, not corruption; Iterate surfaces it
			}
		}
	}
}

// Iterate streams the snapshot's records to fn in write order. The
// payload slice is only valid for the duration of the call. A legacy
// blob snapshot yields exactly one record: the whole image.
func (sn *Snapshot) Iterate(fn func(payload []byte) error) error {
	fsys := sn.fs
	if fsys == nil {
		fsys = fault.OS
	}
	f, err := fsys.Open(sn.path)
	if err != nil {
		return fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	if sn.Legacy {
		buf, err := io.ReadAll(f)
		if err != nil {
			return err
		}
		if len(buf) < 12 {
			return fmt.Errorf("storage: snapshot %s: %w", sn.path, ErrCorrupt)
		}
		return fn(buf[12:])
	}
	if _, err := f.Seek(12, io.SeekStart); err != nil {
		return err
	}
	var cbErr error
	ok := scanSnapshotRecords(f, func(p []byte) error {
		if err := fn(p); err != nil {
			cbErr = err
			return err
		}
		return nil
	})
	if cbErr != nil {
		return cbErr
	}
	if !ok {
		// The file validated at open time; damage appearing between
		// open and read is genuine corruption.
		return fmt.Errorf("storage: snapshot %s: %w", sn.path, ErrCorrupt)
	}
	return nil
}
