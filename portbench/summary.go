package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// maxStageGap is the share by which the pass-B layer spans plus the
// API's own time may miss the pass-A request time before the traced
// run fails its "stages add up" check.
const maxStageGap = 0.25

// summary is the per-layer digest of one span file.
type summary struct {
	h       header
	metrics map[string]metric
	layers  []layerRow
	// coverage is the pass-B time plus api.self_us per request over the
	// pass-A request time, each kind of operation weighted by its count;
	// times are means trimmed to the 5th..95th percentile, so a stray
	// fsync stall in one pass does not decide the check.
	coverage float64
}

type layerRow struct {
	name               string
	count              int
	total, self        time.Duration
	median, selfMedian time.Duration
}

// summarizeFile reads a span file and derives the per-layer metrics.
func summarizeFile(path string) (*summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	s := &summary{metrics: map[string]metric{}}
	var spans []span
	for first := true; sc.Scan(); first = false {
		if first {
			if err := json.Unmarshal(sc.Bytes(), &s.h); err != nil {
				return nil, fmt.Errorf("%s: header: %w", path, err)
			}
			continue
		}
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s.derive(spans)
	return s, nil
}

// children assigns the state-journal storage spans of a sequential
// pass, sorted by start, to the root span they fall inside, and returns
// each root's self time (its duration minus the part its children
// cover).
func children(roots []span, storage []span) []time.Duration {
	self := make([]time.Duration, len(roots))
	for i, r := range roots {
		covered := int64(0)
		cursor := r.Start
		// A storage call that started before the root belongs to an
		// earlier request's commit.
		j := sort.Search(len(storage), func(j int) bool { return storage[j].Start >= r.Start })
		for ; j < len(storage) && storage[j].Start < r.End; j++ {
			lo, hi := max(storage[j].Start, cursor), min(storage[j].End, r.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = time.Duration(r.End - r.Start - covered)
	}
	return self
}

func (s *summary) derive(spans []span) {
	byName := map[string][]span{}
	var stateIO []span
	for _, sp := range spans {
		if sp.Req == -1 {
			if sp.Name == "storage.write.state" || sp.Name == "storage.fsync.state" {
				stateIO = append(stateIO, sp)
			}
		}
		byName[sp.Pass+"/"+sp.Name] = append(byName[sp.Pass+"/"+sp.Name], sp)
	}
	sort.Slice(stateIO, func(i, j int) bool { return stateIO[i].Start < stateIO[j].Start })
	durs := func(key string) []time.Duration {
		var out []time.Duration
		for _, sp := range byName[key] {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
		return out
	}
	med := func(ds []time.Duration) time.Duration { return quantile(append([]time.Duration(nil), ds...), 0.5) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	put := func(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }
	// Storage spans exist for the traced passes A and B only.
	perTracedCase := func(x float64) float64 { return x / float64(max(1, 2*s.h.Cases)) }

	// Layer rows: every root span of passes A and B, plus storage and
	// expression spans, with self time where children are attributable.
	names := map[string]bool{}
	for key := range byName {
		names[key] = true
	}
	keys := sortedKeys(names)
	for _, key := range keys {
		sps := byName[key]
		if sps[0].Pass != "A" && sps[0].Pass != "B" && sps[0].Name != "storage.snapshot" {
			continue
		}
		row := layerRow{name: key, count: len(sps)}
		ds := durs(key)
		self := ds
		if sps[0].Req != -1 {
			self = children(sps, stateIO)
		}
		for i := range ds {
			row.total += ds[i]
			row.self += self[i]
		}
		row.median, row.selfMedian = med(ds), med(self)
		s.layers = append(s.layers, row)
	}

	// api: pass A per operation kind against pass B of the same kind.
	var writesA, readsA []time.Duration
	var readBytes, reads int64
	var selfSum, aSum, bSum float64
	var selfN int
	for kind := range writeKinds {
		writesA = append(writesA, durs("A/api."+kind)...)
	}
	for bName, kind := range passKinds {
		a, b := durs("A/api."+kind), durs("B/"+bName)
		if !writeKinds[kind] {
			readsA = append(readsA, a...)
			for _, sp := range byName["A/api."+kind] {
				readBytes += sp.Bytes
				reads++
			}
		}
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		self := float64(med(a) - med(b))
		aSum += trimmedMean(a) * float64(len(a))
		bSum += (trimmedMean(b) + self) * float64(len(a))
		selfSum += self * float64(len(a))
		selfN += len(a)
	}
	if aSum > 0 {
		s.coverage = bSum / aSum
	}
	put("api.write_us", us(med(writesA)), "us")
	put("api.read_us", us(med(readsA)), "us")
	put("api.resp_bytes", float64(readBytes)/float64(max(1, reads)), "bytes")
	put("api.self_us", selfSum/float64(max(1, selfN))/1e3, "us")

	starts := byName["B/shard.start"]
	put("shard.start_us", us(med(durs("B/shard.start"))), "us")
	put("engine.start_self_us", us(med(children(starts, stateIO))), "us")
	put("engine.allocs_per_case", s.h.StartAllocs/float64(max(1, s.h.Starts)), "count")
	put("engine.bytes_per_case", s.h.StartBytes/float64(max(1, s.h.Starts)), "bytes")
	put("shard.publish_us", us(med(durs("B/shard.publish"))), "us")
	put("shard.summaries_us", us(med(durs("B/shard.summaries"))), "us")
	put("shard.instance_us", us(med(durs("B/shard.instance"))), "us")

	var exprTime int64
	for _, sp := range byName["B/expr.eval"] {
		exprTime += sp.End - sp.Start
	}
	put("expr.eval_ns", float64(exprTime)/float64(max(1, s.h.ExprEvals)), "ns")
	put("expr.evals_per_case", float64(s.h.ExprEvals)/float64(max(1, s.h.ExprCases)), "count")

	put("task.claim_us", us(med(durs("B/task.claim"))), "us")
	put("task.start_us", us(med(durs("B/task.start"))), "us")
	put("task.complete_us", us(med(durs("B/task.complete"))), "us")
	put("task.poll_us", us(med(durs("B/task.poll"))), "us")

	put("timer.pending_max", float64(s.h.TimersPending), "count")
	put("timer.fired", float64(s.h.TimersFired), "count")

	var histBytes, stateBytes int64
	var stateFsyncs []time.Duration
	for _, pass := range []string{"A", "B"} {
		for _, sp := range byName[pass+"/storage.write.history"] {
			histBytes += sp.Bytes
		}
		for _, sp := range byName[pass+"/storage.write.state"] {
			stateBytes += sp.Bytes
		}
		stateFsyncs = append(stateFsyncs, durs(pass+"/storage.fsync.state")...)
	}
	put("history.events_per_case", float64(s.h.HistoryEvents)/float64(max(1, 3*s.h.Cases)), "count")
	put("history.bytes_per_case", perTracedCase(float64(histBytes)), "bytes")
	put("history.pending_max", float64(s.h.HistoryPending), "count")
	put("history.events_of_resident_us", us(med(durs("lookups/history.events_of_resident"))), "us")
	put("history.events_of_evicted_ms", ms(med(durs("lookups/history.events_of_evicted"))), "ms")

	put("storage.state_fsyncs_per_ack", float64(len(stateFsyncs))/float64(max(1, s.h.Writes)), "count")
	put("storage.fsync_us", us(med(stateFsyncs)), "us")
	put("storage.state_bytes_per_case", perTracedCase(float64(stateBytes)), "bytes")

	var snaps []span
	for _, sps := range byName {
		if sps[0].Name == "storage.snapshot" && (sps[0].Pass == "A" || sps[0].Pass == "B") {
			snaps = append(snaps, sps...)
		}
	}
	var snapTime, snapBytes int64
	var snapDurs []time.Duration
	for _, sp := range snaps {
		snapTime += sp.End - sp.Start
		snapBytes += sp.Bytes
		snapDurs = append(snapDurs, time.Duration(sp.End-sp.Start))
	}
	passTime := s.h.PassSeconds["A"] + s.h.PassSeconds["B"]
	put("storage.snapshots", float64(len(snaps)), "count")
	put("storage.snapshot_ms", ms(med(snapDurs)), "ms")
	put("storage.snapshot_bytes", float64(snapBytes)/float64(max(1, len(snaps))), "bytes")
	put("storage.snapshot_busy_ratio", float64(snapTime)/1e9/max(passTime, 1e-9), "ratio")

	put("core.open_s", s.h.OpenSeconds, "s")
	put("core.replay_records", float64(s.h.ReplayRecords), "count")
	put("go.gc_cpu_ratio", s.h.GCCPURatio, "ratio")
	put("go.heap_live_mb_per_kcase", s.h.HeapLiveBytes/(1<<20)/(float64(max(1, s.h.LifetimeCases))/1000), "MB")

	// Tracing overhead: the median request time of traced pass A over
	// that of untraced pass U, both timed around the same client call
	// into the API handler over the same inputs.
	overhead := 0.0
	if a, u := s.h.StepMedianUS["A"], s.h.StepMedianUS["U"]; u > 0 {
		overhead = a/u - 1
	}
	put("trace.overhead_ratio", overhead, "ratio")
}

// trimmedMean averages the values between the 5th and 95th percentile.
func trimmedMean(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo, hi := len(s)/20, len(s)-len(s)/20
	sum := 0.0
	for _, d := range s[lo:hi] {
		sum += float64(d)
	}
	return sum / float64(max(1, hi-lo))
}

// addsUp reports whether the pass-B layer spans plus the API's own
// time account for the pass-A request time within maxStageGap.
func (s *summary) addsUp() bool {
	return s.coverage >= 1-maxStageGap && s.coverage <= 1+maxStageGap
}

// print writes the per-layer table and the metrics.
func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "trace summary: workload=%s seed=%d cases/pass=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		s.h.Workload, s.h.Seed, s.h.Cases, s.h.GOMAXPROCS, s.h.CPU, s.h.GoVersion)
	fmt.Fprintf(w, "%-36s %8s %12s %12s %12s %12s\n", "pass/span", "count", "total_ms", "self_ms", "median_us", "self_med_us")
	for _, r := range s.layers {
		fmt.Fprintf(w, "%-36s %8d %12.2f %12.2f %12.1f %12.1f\n", r.name, r.count,
			ms(r.total), ms(r.self), float64(r.median)/1e3, float64(r.selfMedian)/1e3)
	}
	for _, k := range sortedKeys(s.metrics) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, s.metrics[k].Value, s.metrics[k].Unit)
	}
	verdict := "ok"
	if !s.addsUp() {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "stages add up: pass-B spans + api.self_us cover %.1f%% of pass-A request time (allowed %.0f%%..%.0f%%): %s\n",
		100*s.coverage, 100*(1-maxStageGap), 100*(1+maxStageGap), verdict)
}
