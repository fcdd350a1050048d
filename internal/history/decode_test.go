package history

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bpms/internal/storage"
)

// decodeCorpus returns payloads covering the decoder's fast path and
// every fallback: AppendEncode output, encoding/json output (HTML
// escapes), hand-written variants and malformed records.
func decodeCorpus(t testing.TB) [][]byte {
	events := []*Event{
		typicalActivated(),
		{Type: InstanceStarted, Time: ts(1), ProcessID: "p", InstanceID: "i-1"},
		{Index: 42, Type: TaskCompleted, Time: ts(2).Add(123456789 * time.Nanosecond),
			ProcessID: "order", InstanceID: "i-2", ElementID: "approve",
			Element: "Approve \"big\" order\n<tab>\t", TaskID: "t-9", Actor: "alice\\bob",
			Data: map[string]any{"amount": 150.0, "ok": true, "note": "a\"b"}},
		{Type: ElementCompleted, InstanceID: "i-3", Data: map[string]any{"routing": true}},
		{Type: MessagePublished, Time: ts(3), Element: "ünïcödé — 事件 <&>  "},
		{Type: ProcessDeployed, Time: time.Date(2026, 1, 2, 3, 4, 5, 6, time.FixedZone("X", 5*3600+1800)), ProcessID: "p"},
		{Type: TimerScheduled, Time: ts(4), InstanceID: "x<1>&", Data: map[string]any{"at": "2026-01-01T00:00:00Z", "nested": map[string]any{"l": []any{"a", nil, false}}}},
		{Type: TaskOffered, Time: ts(5), InstanceID: "x-1", TaskID: "task-7", Actor: "lw-clerk-3", Data: map[string]any{}},
	}
	var out [][]byte
	for _, e := range events {
		fast, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fast, legacy)
	}
	for _, s := range []string{
		`{}`,
		`{"type":"a"}`,
		`{"instanceId":"x-1","type":"element.activated","time":"2026-06-01T12:00:00Z"}`,
		`{"type":"a","type":"b","instanceId":"x","instanceId":"y"}`,
		`{"index":0,"type":"a"}`,
		`{"index":18446744073709551615,"type":"a"}`,
		`{"index":18446744073709551616,"type":"a"}`,
		`{"index":01,"type":"a"}`,
		`{"index":-1,"type":"a"}`,
		`{"index":1.5,"type":"a"}`,
		`{"index":1e3,"type":"a"}`,
		`{"index":"1","type":"a"}`,
		`{"index":,"type":"a"}`,
		`{ "type":"a"}`,
		`{"type" :"a"}`,
		`{"type":"a" }`,
		`{"type":"a"} `,
		`{"type":"a"}x`,
		`{"type":"a",}`,
		`{"type":"a""time":"x"}`,
		`{"Type":"a","InstanceID":"x"}`,
		`{"type":"a","instanceid":"x"}`,
		`{"type":"a","extra":"x"}`,
		`{"type":null,"instanceId":null}`,
		`{"type":5}`,
		`{"type":"a","time":""}`,
		`{"type":"a","time":"2026-06-01"}`,
		`{"type":"a","time":"2026-06-01T12:00:00+02:00"}`,
		`{"type":"a","time":"2026-06-01T12:00:00.5-07:30"}`,
		`{"type":"a","time":"2026-13-01T12:00:00Z"}`,
		`{"type":"a","time":"2026-06-01T12:00:00Z"}`,
		`{"type":"a","time":null}`,
		`{"type":"ab","instanceId":"x\/1"}`,
		`{"type":"a","instanceId":"x\"1"}`,
		`{"type":"a","instanceId":"x\\1"}`,
		`{"type":"a","instanceId":"x\q"}`,
		"{\"type\":\"a\",\"instanceId\":\"x\x01\"}",
		"{\"type\":\"a\",\"instanceId\":\"x\xff\"}",
		"{\"type\":\"a\",\"instanceId\":\"\xe4\xba\x8b\"}",
		`{"type":"a","data":null}`,
		`{"type":"a","data":{}}`,
		`{"type":"a","data":{"routing":true}}`,
		`{"type":"a","data":{"n":1e400}}`,
		`{"type":"a","data":{"n":-2}}`,
		`{"type":"a","data":{"s":"}{\"]"}}`,
		`{"type":"a","data":{"a":[1,2}}`,
		`{"type":"a","data":{"a":tru}}`,
		`{"type":"a","data":[]}`,
		`{"type":"a","data":"x"}`,
		`{"data":{"k":"v"},"instanceId":"x-10","type":"a"}`,
		`{"type":"a","data":{"k":"v"}`,
		`{"type":"a","data":{`,
		`{"type":"a`,
		`{"type":`,
		`{"`,
		`{`,
		`[]`,
		`null`,
		``,
		`{broken`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

func typicalActivated() *Event {
	return &Event{Type: ElementActivated, Time: ts(7).Add(123456 * time.Nanosecond),
		ProcessID: "customs-screening", InstanceID: "customs-screening-4711",
		ElementID: "check_documents", Element: "Check documents"}
}

// checkDecodeMatchesJSON holds the decoder to encoding/json on one
// payload: both paths (a fresh DecodeEvent and an interning replay
// decoder), peek and the EventsOf pre-filter must agree with
// json.Unmarshal, and must fail wherever it fails.
func checkDecodeMatchesJSON(t *testing.T, d *decoder, p []byte) {
	t.Helper()
	var want Event
	wantErr := json.Unmarshal(p, &want)
	for name, decode := range map[string]func([]byte) (*Event, error){
		"DecodeEvent": DecodeEvent, "replay": d.decode,
	} {
		got, err := decode(p)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("%s(%q) = %+v, want an error like encoding/json's %v", name, p, got, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s(%q): %v (encoding/json decodes it)", name, p, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s(%q):\n got %#v\nwant %#v", name, p, *got, want)
		}
	}
	typ, inst, err := d.peek(p)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("peek(%q) error %v, encoding/json error %v", p, err, wantErr)
	case err == nil && (typ != want.Type || inst != want.InstanceID):
		t.Fatalf("peek(%q) = %q, %q; want %q, %q", p, typ, inst, want.Type, want.InstanceID)
	}
	if wantErr == nil && d.skips(p, want.InstanceID) {
		t.Fatalf("skips(%q, %q) drops a record of that instance", p, want.InstanceID)
	}
}

// TestDecodeEventMatchesJSON is the differential test of the
// hand-written decoder against encoding/json over the corpus.
func TestDecodeEventMatchesJSON(t *testing.T) {
	d := &decoder{strs: map[string]string{}, ids: map[string]string{}}
	for _, p := range decodeCorpus(t) {
		checkDecodeMatchesJSON(t, d, p)
	}
	// Every AppendEncode form takes the fast path (no data object).
	fast, _ := AppendEncode(nil, typicalActivated())
	var r rawEvent
	if !r.scan(fast) || r.data != nil {
		t.Fatalf("AppendEncode output %s misses the fast path", fast)
	}
}

func FuzzDecodeEvent(f *testing.F) {
	for _, p := range decodeCorpus(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkDecodeMatchesJSON(t, newDecoder(), p)
	})
}

// TestEventsOfPreFilterIDs replays evicted trails of instances whose
// IDs are prefixes of each other or need escapes: the pre-filter may
// skip a record only when it certainly belongs to another instance.
func TestEventsOfPreFilterIDs(t *testing.T) {
	ids := []string{"x-1", "x-10", "x-100", "x-1\"", `x-1\`, "x-1\n", "x<1>&", "ẋ-1", "x-1 "}
	s, err := NewStriped(memJournals(1), StoreOptions{Window: 3, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]int{}
	for round := 0; round < 4; round++ {
		for _, id := range ids {
			e := &Event{Type: ElementActivated, Time: ts(round), InstanceID: id, ElementID: "a"}
			if round%2 == 1 {
				e.Data = map[string]any{"routing": true}
			}
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
			want[id]++
		}
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatal("nothing evicted: the replay path is not exercised")
	}
	for _, id := range ids {
		evs := s.EventsOf(id)
		if len(evs) != want[id] {
			t.Errorf("EventsOf(%q) = %d events, want %d", id, len(evs), want[id])
		}
		for _, e := range evs {
			if e.InstanceID != id {
				t.Errorf("EventsOf(%q) returned an event of %q", id, e.InstanceID)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeEventAllocBudget pins the replay decoder's allocations on
// a typical element.activated record: the Event and its instance ID
// (type, process, element and name are interned). encoding/json spent
// 10 allocations on the same payload.
func TestDecodeEventAllocBudget(t *testing.T) {
	p, err := AppendEncode(nil, typicalActivated())
	if err != nil {
		t.Fatal(err)
	}
	d := newDecoder()
	if _, err := d.decode(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.decode(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("decode costs %.1f allocs per event, budget 2", allocs)
	}
}

func BenchmarkDecodeEvent(b *testing.B) {
	p, err := AppendEncode(nil, typicalActivated())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		d := newDecoder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.decode(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeJSON(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// caseEvents appends one case's audit trail, shaped like an engine
// run: instance start and end, element activations and completions
// (gateways and events marked as routing) and a work item's lifecycle.
func caseEvents(out []*Event, c int) []*Event {
	id := fmt.Sprintf("customs-screening-%d", c)
	at := ts(c % 60)
	ev := func(typ EventType, el string) *Event {
		e := &Event{Type: typ, Time: at, ProcessID: "customs-screening", InstanceID: id, ElementID: el, Element: el}
		out = append(out, e)
		return e
	}
	ev(InstanceStarted, "")
	for _, el := range []string{"start", "screen", "risk_gateway", "inspect", "end"} {
		ev(ElementActivated, el)
		if el == "inspect" {
			for _, typ := range []EventType{TaskCreated, TaskOffered, TaskAllocated, TaskStarted, TaskCompleted} {
				e := ev(typ, el)
				e.TaskID, e.Actor = fmt.Sprintf("task-%d", c), "officer-3"
			}
		}
		e := ev(ElementCompleted, el)
		if el == "start" || el == "end" || el == "risk_gateway" {
			e.Data = map[string]any{"routing": true}
		}
	}
	ev(InstanceCompleted, "")
	return out
}

// BenchmarkStoreReopen times recovering a store: a 150k-event journal
// reopened with a 100k-event resident window, so a third of the
// records only feed the counters.
func BenchmarkStoreReopen(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "hist")
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	n := 0
	for c := 0; n < 150_000; c++ {
		for _, e := range caseEvents(nil, c) {
			if buf, err = AppendEncode(buf[:0], e); err != nil {
				b.Fatal(err)
			}
			if _, err := j.Append(buf); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := storage.OpenFileJournal(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Events != n || st.Resident != 100_000 {
			b.Fatalf("reopened %+v, want %d events with 100000 resident", st, n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
