package history

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bpms/internal/storage"
)

func memJournals(n int) []storage.Journal {
	out := make([]storage.Journal, n)
	for i := range out {
		out[i] = storage.NewMemJournal()
	}
	return out
}

func fileJournals(t *testing.T, dir string, n int, opts storage.Options) []storage.Journal {
	t.Helper()
	out := make([]storage.Journal, n)
	for i := range out {
		j, err := storage.OpenFileJournal(filepath.Join(dir, fmt.Sprintf("stripe-%04d", i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = j
	}
	return out
}

// TestAppendEncodeRoundTrip proves the append-style encoder and
// encoding/json agree: both forms decode to the same event.
func TestAppendEncodeRoundTrip(t *testing.T) {
	events := []*Event{
		{Type: InstanceStarted, Time: ts(1), ProcessID: "p", InstanceID: "i-1"},
		{Index: 42, Type: TaskCompleted, Time: ts(2).Add(123456789 * time.Nanosecond),
			ProcessID: "order", InstanceID: "i-2", ElementID: "approve",
			Element: "Approve \"big\" order\n<tab>\t", TaskID: "t-9", Actor: "alice\\bob",
			Data: map[string]any{"amount": 150.0, "ok": true, "note": "a\"b"}},
		{Type: ElementCompleted, Time: time.Time{}, InstanceID: "i-3", Data: map[string]any{"routing": true}},
		{Type: MessagePublished, Time: ts(3), Element: "ünïcödé — 事件"},
	}
	for i, e := range events {
		fast, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatalf("event %d: AppendEncode: %v", i, err)
		}
		got, err := DecodeEvent(fast)
		if err != nil {
			t.Fatalf("event %d: decode fast form: %v\n%s", i, err, fast)
		}
		if got.Type != e.Type || got.ProcessID != e.ProcessID || got.InstanceID != e.InstanceID ||
			got.ElementID != e.ElementID || got.Element != e.Element || got.TaskID != e.TaskID ||
			got.Actor != e.Actor || got.Index != e.Index || !got.Time.Equal(e.Time) {
			t.Errorf("event %d: round trip mismatch:\n got %+v\nwant %+v", i, got, e)
		}
		if !reflect.DeepEqual(got.Data, e.Data) {
			t.Errorf("event %d: data mismatch: got %v want %v", i, got.Data, e.Data)
		}
	}
	// Encoding appends to the given buffer rather than replacing it.
	prefix := []byte("xx")
	out, err := AppendEncode(prefix, events[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:2]) != "xx" || out[2] != '{' {
		t.Errorf("AppendEncode did not append: %q", out[:3])
	}
}

// TestStripedConcurrentAppendQuery hammers a striped store from many
// writers while readers query it (run under -race in CI): per-instance
// order must hold throughout and all events must land.
func TestStripedConcurrentAppendQuery(t *testing.T) {
	s, err := NewStriped(memJournals(4), StoreOptions{Window: 64, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 8, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers race the writers.
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Count()
				evs := s.EventsOf(fmt.Sprintf("inst-%d", r))
				for i := 1; i < len(evs); i++ {
					if evs[i].Data["seq"].(float64) <= evs[i-1].Data["seq"].(float64) {
						t.Errorf("out-of-order events for inst-%d", r)
						return
					}
				}
				_ = s.All(func(*Event) error { return nil })
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			inst := fmt.Sprintf("inst-%d", w)
			for i := 0; i < perWriter; i++ {
				s.Enqueue(&Event{
					Type: ElementCompleted, Time: ts(i), InstanceID: inst,
					Data: map[string]any{"seq": float64(i)},
				})
			}
		}(w)
	}
	// Wait for the writers, stop the readers, then verify the final
	// image: queries barrier on the pipeline, so everything written is
	// visible.
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		evs := s.EventsOf(fmt.Sprintf("inst-%d", w))
		if len(evs) != perWriter {
			t.Fatalf("inst-%d: %d events, want %d", w, len(evs), perWriter)
		}
		for i, e := range evs {
			if int(e.Data["seq"].(float64)) != i {
				t.Fatalf("inst-%d: event %d has seq %v", w, i, e.Data["seq"])
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestFlushedPrefixSurvivesCrash proves the Flush contract: events
// acknowledged by Flush are on stable storage and replay in per-
// instance order after a crash (simulated by reopening the journals
// without Close, as the WAL reopen-without-Close tests do). The
// unflushed tail is best-effort by design.
func TestFlushedPrefixSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	const stripes = 2
	js := fileJournals(t, dir, stripes, storage.Options{Policy: storage.SyncNever})
	s, err := NewStriped(js, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const flushed, tail = 40, 7
	for i := 0; i < flushed; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i),
			InstanceID: fmt.Sprintf("i-%d", i%3), Data: map[string]any{"seq": float64(i)}})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A tail past the Flush barrier: appended to the journals' write
	// buffers but never synced — the crash may lose it.
	for i := flushed; i < flushed+tail; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i),
			InstanceID: fmt.Sprintf("i-%d", i%3), Data: map[string]any{"seq": float64(i)}})
	}
	if got := s.Count(); got != flushed+tail { // drains the pipeline
		t.Fatalf("pre-crash Count = %d", got)
	}

	// "Crash": reopen the journal dirs without closing the store.
	js2 := fileJournals(t, dir, stripes, storage.Options{Policy: storage.SyncNever})
	s2, err := NewStriped(js2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(); got < flushed {
		t.Fatalf("recovered %d events, want at least the %d flushed", got, flushed)
	}
	// Per instance: the flushed prefix is intact and ordered.
	bySeq := map[string][]int{}
	for _, id := range s2.InstanceIDs() {
		for _, e := range s2.EventsOf(id) {
			bySeq[id] = append(bySeq[id], int(e.Data["seq"].(float64)))
		}
	}
	want := map[string][]int{}
	for i := 0; i < flushed; i++ {
		id := fmt.Sprintf("i-%d", i%3)
		want[id] = append(want[id], i)
	}
	for id, seqs := range want {
		got := bySeq[id]
		if len(got) < len(seqs) {
			t.Fatalf("%s: recovered %d events, want >= %d (flushed prefix lost)", id, len(got), len(seqs))
		}
		for i, s := range seqs {
			if got[i] != s {
				t.Fatalf("%s: event %d has seq %d, want %d (order broken)", id, i, got[i], s)
			}
		}
		// Any recovered tail must continue in order too.
		for i := len(seqs) + 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%s: tail out of order: %v", id, got)
			}
		}
	}
}

// TestWindowEvictionEquivalence proves a bounded store answers
// queries identically to an unbounded one, live and after a reopen:
// evicted ranges are served by journal replay, and recovery rebuilds
// the counters of the evicted prefix without decoding it into events.
func TestWindowEvictionEquivalence(t *testing.T) {
	events := equivalenceEvents()
	ref, err := NewStriped(memJournals(1), StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		c := *e
		if err := ref.Append(&c); err != nil {
			t.Fatal(err)
		}
	}
	total := len(events)
	for _, tc := range []struct {
		name            string
		stripes, window int
	}{
		{"unbounded", 1, 0},
		{"below-total", 1, total / 3},
		{"window-1", 1, 1},
		{"equal-total", 1, total},
		{"above-total", 1, total + 5},
		{"striped-below-total", 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStriped(fileJournals(t, dir, tc.stripes, storage.Options{}), StoreOptions{Window: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				c := *e
				if err := s.Append(&c); err != nil {
					t.Fatal(err)
				}
			}
			live := s.Stats()
			if tc.window > 0 && live.Resident > tc.stripes*tc.window {
				t.Errorf("resident = %d, want <= %d", live.Resident, tc.stripes*tc.window)
			}
			if live.Events != total || live.Evicted != total-live.Resident {
				t.Errorf("live stats %+v, want %d events split into resident and evicted", live, total)
			}
			if tc.stripes == 1 {
				sameAnswers(t, "live", s, ref)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen with the same window: the counters-only prefix and
			// the decoded suffix must reproduce the live store exactly.
			re, err := NewStriped(fileJournals(t, dir, tc.stripes, storage.Options{}), StoreOptions{Window: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Stats(); got != live {
				t.Errorf("reopened stats %+v, live stats %+v", got, live)
			}
			if tc.stripes == 1 {
				sameAnswers(t, "reopened", re, ref)
			} else {
				sameInstanceAnswers(t, "reopened", re, ref)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			// A fresh unbounded store over the same journals agrees too.
			full, err := NewStriped(fileJournals(t, dir, tc.stripes, storage.Options{}), StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			sameInstanceAnswers(t, "unbounded reopen", full, ref)
		})
	}
}

// gapJournal hides one record from replays, as a damaged segment
// whose tail the scan stops at would.
type gapJournal struct {
	storage.Journal
	gap uint64
}

func (g gapJournal) Replay(from uint64, fn func(uint64, []byte) error) error {
	return g.Journal.Replay(from, func(index uint64, p []byte) error {
		if index == g.gap {
			return nil
		}
		return fn(index, p)
	})
}

// TestRecoverGapInResidentSuffix: when records are missing from the
// would-be resident suffix, recovery still keeps the last Window
// records replayed resident, as a full decode-and-evict replay does.
func TestRecoverGapInResidentSuffix(t *testing.T) {
	j := storage.NewMemJournal()
	for i := 0; i < 20; i++ {
		p, _ := AppendEncode(nil, &Event{Type: ElementActivated, Time: ts(i), InstanceID: fmt.Sprintf("i-%d", i%3)})
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStriped([]storage.Journal{gapJournal{j, 18}}, StoreOptions{Window: 5, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := StoreStats{Stripes: 1, Window: 5, Events: 19, Resident: 5, Evicted: 14}
	if got := s.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if n := len(s.EventsOf("i-2")); n != 5 { // events 2,5,8,11,14; 17 sits at the hidden index 18
		t.Errorf("EventsOf(i-2) = %d events, want 5", n)
	}
}

// equivalenceEvents is a mixed history: instance IDs that prefix each
// other or need escapes, data-bearing routing events, numeric data
// (the decoder's slow path) and events of no instance.
func equivalenceEvents() []*Event {
	ids := []string{"x-1", "x-10", "x-100", "x\"1", "ẋ-2"}
	var out []*Event
	out = append(out, &Event{Type: ProcessDeployed, Time: ts(0), ProcessID: "p"})
	for i := 0; i < 50; i++ {
		e := &Event{Type: ElementActivated, Time: ts(i), ProcessID: "p",
			InstanceID: ids[i%len(ids)], ElementID: fmt.Sprintf("el-%d", i%4), Element: "Check"}
		switch i % 5 {
		case 1:
			e.Type, e.Data = ElementCompleted, map[string]any{"routing": true}
		case 2:
			e.Type, e.TaskID, e.Actor = TaskCompleted, fmt.Sprintf("t-%d", i), "alice"
			e.Data = map[string]any{"seq": float64(i)}
		case 3:
			e.Type = MessageCorrelated
		}
		out = append(out, e)
		if i == 25 {
			out = append(out, &Event{Type: ProcessDeployed, Time: ts(i), ProcessID: "q"})
		}
	}
	return out
}

// sameAnswers compares every query of a single-stripe store with the
// reference, event by event.
func sameAnswers(t *testing.T, when string, got, want *Store) {
	t.Helper()
	var all []*Event
	if err := got.All(func(e *Event) error { all = append(all, e); return nil }); err != nil {
		t.Fatal(err)
	}
	var wantAll []*Event
	if err := want.All(func(e *Event) error { wantAll = append(wantAll, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, wantAll) {
		t.Errorf("%s: All streams %d events, want %d (or they differ)", when, len(all), len(wantAll))
	}
	sameInstanceAnswers(t, when, got, want)
}

// sameInstanceAnswers compares the queries that do not depend on the
// stripe count: counts, instance IDs and every instance's trail.
func sameInstanceAnswers(t *testing.T, when string, got, want *Store) {
	t.Helper()
	if a, b := got.Count(), want.Count(); a != b {
		t.Errorf("%s: Count = %d, want %d", when, a, b)
	}
	for _, typ := range []EventType{ProcessDeployed, ElementActivated, ElementCompleted, TaskCompleted, MessageCorrelated} {
		if a, b := got.CountByType(typ), want.CountByType(typ); a != b {
			t.Errorf("%s: CountByType(%s) = %d, want %d", when, typ, a, b)
		}
	}
	ids := want.InstanceIDs()
	if a := got.InstanceIDs(); !reflect.DeepEqual(a, ids) {
		t.Errorf("%s: InstanceIDs = %q, want %q", when, a, ids)
	}
	for _, id := range ids {
		a, b := got.EventsOf(id), want.EventsOf(id)
		if len(a) != len(b) {
			t.Errorf("%s: EventsOf(%q) = %d events, want %d", when, id, len(a), len(b))
			continue
		}
		for i := range a {
			// Indexes are per stripe; the rest of each event must match.
			x, y := *a[i], *b[i]
			x.Index, y.Index = 0, 0
			if !reflect.DeepEqual(x, y) {
				t.Errorf("%s: EventsOf(%q)[%d] = %+v, want %+v", when, id, i, x, y)
			}
		}
		for i := 1; i < len(a); i++ {
			if a[i].Index <= a[i-1].Index {
				t.Errorf("%s: EventsOf(%q) indexes not increasing at %d", when, id, i)
			}
		}
	}
	if err := got.Flush(); err != nil {
		t.Errorf("%s: Flush: %v", when, err)
	}
}

// TestStoreCloseStopsPipeline checks Close is idempotent, drains the
// queue, and that queries still answer from RAM afterwards.
func TestStoreCloseStopsPipeline(t *testing.T) {
	s, err := NewStriped(memJournals(2), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i), InstanceID: "i-1"})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Count(); got != 20 {
		t.Errorf("post-close Count = %d, want 20", got)
	}
	if got := len(s.EventsOf("i-1")); got != 20 {
		t.Errorf("post-close EventsOf = %d, want 20", got)
	}
	// Enqueue after Close must not panic (events are dropped).
	s.Enqueue(&Event{Type: ElementCompleted, Time: ts(99), InstanceID: "i-1"})
	if err := s.Append(&Event{Type: ElementCompleted, Time: ts(99)}); err == nil {
		t.Error("Append after Close should error")
	}
}

// TestSyncModeFlushSurfacesAppendErrors: a failed write-through append
// on the fire-and-forget Enqueue path must still surface via Flush.
func TestSyncModeFlushSurfacesAppendErrors(t *testing.T) {
	j := storage.NewMemJournal()
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s.Enqueue(&Event{Type: ElementCompleted, Time: ts(1), InstanceID: "i-1"})
	if err := s.Flush(); err == nil {
		t.Error("Flush should report the dropped append")
	}
}
