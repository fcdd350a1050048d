package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/api"
	"bpms/internal/client"
	"bpms/internal/core"
	"bpms/internal/expr"
	"bpms/internal/fault"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer started. Parent and Req are -1 where the
// recorder cannot know them (storage calls made by committer
// goroutines); the summariser assigns storage spans to the sequential
// request they fall inside.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Bytes  int64  `json:"bytes,omitempty"`
	N      int    `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	pass  string
	req   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span of the current pass; root spans get a request ID.
func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	s.Pass = t.pass
	if s.Req == 0 {
		t.req++
		s.Req = t.req
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time opens a root span and returns the function that closes it.
func (t *tracer) time(name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	start := t.now()
	return func() { t.add(span{Name: name, Start: start, End: t.now(), Parent: -1}) }
}

func (t *tracer) setPass(p string, on bool) {
	t.mu.Lock()
	t.pass = p
	t.mu.Unlock()
	t.on.Store(on)
}

// timingFS wraps the storage seam: every write and fsync of a journal
// or snapshot file becomes a span, classed by the file's directory.
type timingFS struct {
	fault.FS
	tr *tracer

	mu        sync.Mutex
	snapOpen  map[string]int64 // snapshot temp file -> open time
	snapBytes map[string]int64
	snapIndex uint64 // index of the newest snapshot read during open
}

func storageClass(name string) string {
	switch {
	case strings.Contains(name, string(filepath.Separator)+"snapshots"+string(filepath.Separator)):
		return "snapshot"
	case strings.Contains(name, string(filepath.Separator)+"history"):
		return "history"
	}
	return "state"
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	class := storageClass(name)
	if class == "snapshot" && flag&os.O_CREATE != 0 {
		f.mu.Lock()
		f.snapOpen[name] = f.tr.now()
		f.mu.Unlock()
	}
	return &timingFile{File: file, fs: f, class: class}, nil
}

func (f *timingFS) Open(name string) (fault.File, error) {
	if base := filepath.Base(name); storageClass(name) == "snapshot" && strings.HasPrefix(base, "snap-") {
		digits := strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(base, "snap-"), ".snap"), ".json")
		if idx, err := strconv.ParseUint(digits, 10, 64); err == nil {
			f.mu.Lock()
			f.snapIndex = max(f.snapIndex, idx)
			f.mu.Unlock()
		}
	}
	return f.FS.Open(name)
}

// Rename commits a snapshot: the span runs from the temp file's
// creation to its rename.
func (f *timingFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	start, ok := f.snapOpen[oldpath]
	n := f.snapBytes[oldpath]
	delete(f.snapOpen, oldpath)
	delete(f.snapBytes, oldpath)
	f.mu.Unlock()
	if ok && err == nil {
		f.tr.add(span{Name: "storage.snapshot", Start: start, End: f.tr.now(), Parent: -1, Req: -1, Bytes: n})
	}
	return err
}

type timingFile struct {
	fault.File
	fs    *timingFS
	class string
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.Write(p)
	if f.class == "snapshot" {
		f.fs.mu.Lock()
		f.fs.snapBytes[f.Name()] += int64(n)
		f.fs.mu.Unlock()
		return n, err
	}
	f.fs.tr.add(span{Name: "storage.write." + f.class, Start: start, End: f.fs.tr.now(), Parent: -1, Req: -1, Bytes: int64(n)})
	return n, err
}

func (f *timingFile) Sync() error {
	start := f.fs.tr.now()
	err := f.File.Sync()
	if f.class != "snapshot" {
		f.fs.tr.add(span{Name: "storage.fsync." + f.class, Start: start, End: f.fs.tr.now(), Parent: -1, Req: -1})
	}
	return err
}

// inprocTransport hands client requests straight to the API handler,
// inside the benchmark's middleware span (pass A).
type inprocTransport struct {
	h  http.Handler
	tr *tracer
}

func (p inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := p.tr.now()
	p.h.ServeHTTP(rec, req)
	p.tr.add(span{Name: "api." + opKind(req), Start: start, End: p.tr.now(), Parent: -1, Bytes: int64(rec.Body.Len())})
	return rec.Result(), nil
}

// opKind names an API request by the layer call it maps to, so pass-A
// and pass-B spans of the same operation pair up.
func opKind(req *http.Request) string {
	p := strings.TrimPrefix(req.URL.Path, "/api/v1")
	switch {
	case req.Method == http.MethodPost && p == "/instances":
		return "start"
	case p == "/messages":
		return "publish"
	case strings.HasSuffix(p, "/claim"):
		return "claim"
	case strings.HasSuffix(p, "/start"):
		return "task_start"
	case strings.HasSuffix(p, "/complete"):
		return "complete"
	case strings.HasSuffix(p, "/history"):
		return "history"
	case p == "/instances":
		return "summaries"
	case strings.HasPrefix(p, "/instances/"):
		return "instance"
	case p == "/tasks" && req.URL.Query().Get("user") != "":
		return "poll"
	case p == "/tasks":
		return "by_state"
	}
	return "other"
}

// passKinds maps pass-B span names to the API operation kinds.
var passKinds = map[string]string{
	"shard.start": "start", "shard.publish": "publish", "task.claim": "claim", "task.start": "task_start",
	"task.complete": "complete", "history.events_of": "history", "shard.summaries": "summaries",
	"shard.instance": "instance", "task.poll": "poll", "task.by_state": "by_state",
}

var writeKinds = map[string]bool{"start": true, "publish": true, "claim": true, "task_start": true, "complete": true}

// header carries the counters a trace file records beside its spans.
type header struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Cases          int                `json:"casesPerPass"`
	PassSeconds    map[string]float64 `json:"passSeconds"`
	StepMedianUS   map[string]float64 `json:"stepMedianUs"` // client-side request time, passes U and A
	Writes         int                `json:"tracedWrites"`
	LifetimeCases  int                `json:"lifetimeCases"`
	OpenSeconds    float64            `json:"openSeconds"`
	ReplayRecords  uint64             `json:"replayRecords"`
	HistoryEvents  int                `json:"historyEvents"`
	HistoryPending int                `json:"historyPendingMax"`
	TimersPending  int                `json:"timersPendingMax"`
	TimersFired    int                `json:"timersFired"`
	StartAllocs    float64            `json:"startAllocs"`
	StartBytes     float64            `json:"startBytes"`
	Starts         int                `json:"starts"`
	ExprEvals      int                `json:"exprEvals"`
	ExprCases      int                `json:"exprCases"`
	GCCPURatio     float64            `json:"gcCPURatio"`
	HeapLiveBytes  float64            `json:"heapLiveBytes"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	GoVersion      string             `json:"goVersion"`
	CPU            string             `json:"cpu"`
	CheckErrors    []string           `json:"checkErrors,omitempty"`
	FailedRequests int                `json:"failedRequests"`
	AttemptedReqs  int                `json:"attemptedRequests"`
}

// traceCases sizes the traced passes: each pass runs this many cases
// of the workload, sequentially.
func traceCases(w workload) int {
	switch w.name {
	case "clearance":
		return 3000
	case "dangerous-goods":
		return 1000
	}
	return 600
}

// runTraced runs the workload in process with bpmsd's default options
// in three interleaved sequential passes over the same inputs: U sends
// the requests through the API handler untraced, A through the handler
// inside the benchmark's middleware with tracing on, and B calls the
// layers directly. It writes the span file and reports the per-layer
// metrics the summariser derives from it.
func runTraced(w workload, o options) (result, error) {
	dir := filepath.Join(o.work, w.name+"-trace")
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(filepath.Join(dir, "data"))
	dataDir := filepath.Join(dir, "data")
	var lt *lifetime
	if w.lifeDone > 0 {
		var err error
		if lt, err = buildLifetime(dataDir, o.seed, w.lifeDone, w.lifeActive); err != nil {
			return result{}, err
		}
	}
	tr := newTracer()
	tfs := &timingFS{FS: fault.OS, tr: tr, snapOpen: map[string]int64{}, snapBytes: map[string]int64{}}
	h := header{Workload: w.name, Seed: o.seed, PassSeconds: map[string]float64{},
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: cpuModel()}
	tr.setPass("open", true)
	t0 := time.Now()
	b, err := core.Open(bpmsdOptions(dataDir, tfs))
	if err != nil {
		return result{}, err
	}
	h.OpenSeconds = time.Since(t0).Seconds()
	if last := b.ShardStats()[0].JournalLast; last > tfs.snapIndex {
		h.ReplayRecords = last - tfs.snapIndex
	}
	tr.setPass("setup", false)
	closed := false
	defer func() {
		if !closed {
			b.Close()
		}
	}()
	if lt == nil {
		if err := deployInProcess(b); err != nil {
			return result{}, err
		}
	} else {
		for _, hm := range harbourMasters {
			b.AddUser(hm, roleHarbour)
		}
		b.AddUser(userOfficer, "dg-officer")
	}

	handler := api.New(b).Handler()
	targets := map[string]target{
		"U": httpTarget{c: client.New("http://bench", client.WithHTTPClient(&http.Client{Transport: plainTransport{handler}}))},
		"A": httpTarget{c: client.New("http://bench", client.WithHTTPClient(&http.Client{Transport: inprocTransport{handler, tr}}))},
		"B": directTarget{b: b, tr: tr},
	}
	n := traceCases(w)
	h.Cases = n
	cases := map[string][]*kase{}
	for i, p := range []string{"U", "A", "B"} {
		cases[p] = traceCaseList(w, o.seed, n, lt, 3_000_000+i*1_000_000)
	}

	// DG no-show cases: their timers fire while the passes run.
	var noShows []*kase
	if w.name == "dangerous-goods" {
		for i := 0; i < 8; i++ {
			k := newDGCase(genDG(seedRand(o.seed, "noshow"), 900000+i, o.seed, true), harbourMasters[0])
			noShows = append(noShows, k)
		}
	}
	var rec recorder
	for _, k := range noShows {
		for _, s := range k.steps[:5] { // start, poll, claim, begin, complete
			rec.record(s.read, 0, 0, s.do(targets["U"]))
		}
	}

	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.HistoryPending = max(h.HistoryPending, b.History.Stats().Pending)
				h.TimersPending = max(h.TimersPending, b.Timers.Pending())
			}
		}
	}()
	eventsBefore := b.History.Stats().Events
	gcBefore := readRuntime()
	// The passes take turns in chunks, in rotating order, so each sees
	// the same lifetime growth and the same background work.
	const chunk = 50
	order := []string{"U", "A", "B"}
	stepTimes := map[string][]time.Duration{}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		for i := range order {
			p := order[(lo/chunk+i)%len(order)]
			tr.setPass(p, p != "U")
			t1 := time.Now()
			for _, k := range cases[p][lo:hi] {
				if p == "B" {
					runDirectCase(targets[p].(directTarget), k, &h, &rec)
					continue
				}
				for _, s := range k.steps {
					t2 := time.Now()
					err := s.do(targets[p])
					stepTimes[p] = append(stepTimes[p], time.Since(t2))
					rec.record(s.read, 0, 0, err)
				}
			}
			h.PassSeconds[p] += time.Since(t1).Seconds()
		}
	}
	h.StepMedianUS = map[string]float64{}
	for p, ds := range stepTimes {
		h.StepMedianUS[p] = float64(quantile(ds, 0.5)) / 1e3
	}
	for _, p := range []string{"A", "B"} {
		for _, k := range cases[p] {
			for _, s := range k.steps {
				if !s.read {
					h.Writes++ // requests acknowledged durably in the traced passes
				}
			}
		}
	}
	tr.setPass("lookups", true)
	if err := b.History.Flush(); err != nil {
		return result{}, err
	}
	h.HistoryEvents = b.History.Stats().Events - eventsBefore
	gcAfter := readRuntime()
	if cpu := gcAfter.totalCPU - gcBefore.totalCPU; cpu > 0 {
		h.GCCPURatio = (gcAfter.gcCPU - gcBefore.gcCPU) / cpu
	}
	close(stop)
	samplerWG.Wait()

	// Audit lookups: the most recent cases (resident) and, where the
	// lifetime has outgrown the resident window, the oldest ones.
	recent := cases["B"][max(0, n-20):]
	for _, k := range recent {
		done := tr.time("history.events_of_resident")
		b.History.EventsOf(k.id)
		done()
	}
	oldest := cases["U"][:1]
	if lt != nil {
		oldest = lt.early
	}
	if b.History.Stats().Evicted > 0 {
		for _, k := range oldest[:min(3, len(oldest))] {
			done := tr.time("history.events_of_evicted")
			got := len(b.History.EventsOf(k.id))
			done()
			if got != k.events {
				rec.checks = append(rec.checks, checkf("audit trail of %s has %d events, want %d", k.id, got, k.events))
			}
		}
	}
	// Finish the no-show cases once their timers have fired.
	for _, k := range noShows {
		for _, s := range k.steps[5:] {
			rec.record(s.read, 0, 0, s.do(targets["U"]))
		}
		if v, err := b.Engine.Instance(k.id); err == nil && v.Vars["berth"].ToGo() == "rescheduled" {
			h.TimersFired++
		}
	}
	if h.TimersFired != len(noShows) {
		rec.checks = append(rec.checks, checkf("%d of %d no-show timers fired", h.TimersFired, len(noShows)))
	}
	tr.setPass("close", false)
	runtime.GC()
	h.HeapLiveBytes = readRuntime().heapLive
	h.LifetimeCases = 3 * n
	if lt != nil {
		h.LifetimeCases += lt.done + lt.active
	}
	closed = true
	if err := b.Close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	h.FailedRequests, h.AttemptedReqs = rec.failed, rec.attempted
	for _, err := range rec.checks {
		h.CheckErrors = append(h.CheckErrors, err.Error())
	}

	spanPath := filepath.Join(dir, "spans.jsonl")
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	if err := writeSpans(spanPath, h, spans); err != nil {
		return result{}, err
	}
	sum, err := summarizeFile(spanPath)
	if err != nil {
		return result{}, err
	}
	sum.print(os.Stderr)
	fmt.Fprintf(os.Stderr, "portbench: %s: spans written to %s\n", w.name, spanPath)
	res := result{Correct: len(h.CheckErrors) == 0 && sum.addsUp(), Attempted: rec.attempted, Failed: rec.failed,
		Metrics: sum.metrics}
	for _, e := range h.CheckErrors {
		fmt.Fprintln(os.Stderr, "portbench: CHECK FAILED:", e)
	}
	return res, nil
}

// traceCaseList generates one pass's cases; every pass gets the same
// inputs.
func traceCaseList(w workload, seed int64, n int, lt *lifetime, keyBase int) []*kase {
	r := seedRand(seed, w.name+"/trace")
	gen := mixGen(seed, w.name+"/trace", keyBase)
	out := make([]*kase, 0, n)
	for i := 0; i < n; i++ {
		switch w.name {
		case "clearance":
			out = append(out, newClearanceCase(genClearance(r), i%2 == 0))
		case "dangerous-goods":
			out = append(out, newDGCase(genDG(r, keyBase+i, seed, false), harbourMasters[0]))
		default:
			k := mixedCase(gen, i, harbourMasters[0], false)
			// Each case is followed by one operator read.
			k.steps = append(k.steps, operatorReads(r, lt, lt.recent, 1, time.Second)[0].k.steps[0])
			out = append(out, k)
		}
	}
	return out
}

// runDirectCase runs a pass-B case and, for clearance, re-evaluates
// the expressions on its path through the expression cache, and
// measures the allocations of each start.
func runDirectCase(t directTarget, k *kase, h *header, rec *recorder) {
	for i, s := range k.steps {
		var before runtimeSample
		if i == 0 {
			before = readRuntime()
		}
		err := s.do(t)
		if i == 0 {
			after := readRuntime()
			h.StartAllocs += after.allocObjects - before.allocObjects
			h.StartBytes += after.allocBytes - before.allocBytes
			h.Starts++
		}
		rec.record(s.read, 0, 0, err)
	}
	if k.cl == nil || k.id == "" {
		return
	}
	v, err := t.b.Engine.Variables(k.id)
	if err != nil {
		rec.record(true, 0, 0, err)
		return
	}
	env := expr.MapEnv(v)
	srcs := k.cl.evals()
	start := t.tr.now()
	for _, src := range srcs {
		p, err := expr.Cached(src)
		if err == nil {
			_, err = p.Eval(env)
		}
		if err != nil {
			rec.checks = append(rec.checks, checkf("expr %q: %v", src, err))
		}
	}
	t.tr.add(span{Name: "expr.eval", Start: start, End: t.tr.now(), Parent: -1, N: len(srcs)})
	h.ExprEvals += len(srcs)
	h.ExprCases++
}

// plainTransport is inprocTransport without the span (pass U).
type plainTransport struct{ h http.Handler }

func (p plainTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

type runtimeSample struct {
	allocObjects, allocBytes, gcCPU, totalCPU, heapLive float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3), v(4)}
}

// writeSpans writes the header line, then one span per line.
func writeSpans(path string, h header, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
