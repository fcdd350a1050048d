package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request: when it was due, how long it took
// from then, and whether it was a read.
type sample struct {
	due, lat time.Duration
	read     bool
	what     string // process and step, for the slowest-request report
}

// recorder collects one sender's outcomes. Latencies of failed
// requests are recorded as +Inf, so a failure misses every limit.
type recorder struct {
	samples   []sample
	late      []time.Duration // open loop: send time minus due time
	attempted int
	failed    int
	checks    []error
}

func (r *recorder) record(read bool, due, lat time.Duration, err error) {
	r.attempted++
	if errors.Is(err, errCheck) {
		r.checks = append(r.checks, err)
	} else if err != nil {
		r.failed++
		lat = time.Duration(math.MaxInt64)
	}
	r.samples = append(r.samples, sample{due: due, lat: lat, read: read})
}

func (r *recorder) merge(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.checks = append(r.checks, o.checks...)
}

// latencies returns the read or write latencies.
func (r *recorder) latencies(read bool) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.read == read {
			out = append(out, s.lat)
		}
	}
	return out
}

// slowest returns the n slowest samples, slowest first.
func (r *recorder) slowest(n int) []sample {
	s := append([]sample(nil), r.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].lat > s[j].lat })
	return s[:min(n, len(s))]
}

// runCase sends a case's remaining steps back to back (closed loop).
func runCase(t target, k *kase, rec *recorder) {
	for _, s := range k.steps {
		t0 := time.Now()
		err := s.do(t)
		if rec != nil {
			rec.record(s.read, 0, time.Since(t0), err)
		}
		if err != nil && !errors.Is(err, errCheck) {
			// The rest of the case depends on this response.
			return
		}
	}
}

// runClosed runs cases over `senders` goroutines, each sending a case's
// next request only after the previous one completed. It returns the
// elapsed time.
func runClosed(t target, cases []*kase, senders int, rec *recorder) time.Duration {
	var next atomic.Int64
	recs := make([]recorder, senders)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(cases) {
					return
				}
				runCase(t, cases[n], r)
			}
		}(&recs[i])
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for i := range recs {
		rec.merge(&recs[i])
	}
	return elapsed
}

// planned is one request of an open-loop schedule: a step of a case,
// due at a fixed offset from the phase start.
type planned struct {
	due time.Duration
	k   *kase
	s   int
}

// schedule lays out cases arriving at the given offsets into one
// sender's due-ordered request list.
func schedule(cases []*kase, arrivals []time.Duration) []planned {
	var out []planned
	for i, k := range cases {
		for j, s := range k.steps {
			if !s.late {
				out = append(out, planned{due: arrivals[i] + s.at, k: k, s: j})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// runOpen sends one sender's schedule. Each request is timed from when
// it was due, not from when it was sent, so a stall of the server also
// counts against the requests queued behind it.
func runOpen(t target, plan []planned, t0 time.Time, rec *recorder) {
	broken := map[*kase]bool{}
	for _, p := range plan {
		due := t0.Add(p.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := p.k.steps[p.s]
		if broken[p.k] {
			rec.record(s.read, p.due, 0, errSkipped)
			continue
		}
		rec.late = append(rec.late, time.Since(due))
		err := s.do(t)
		rec.record(s.read, p.due, time.Since(due), err)
		rec.samples[len(rec.samples)-1].what = fmt.Sprintf("%s step %d", p.k.proc, p.s)
		if err != nil && !errors.Is(err, errCheck) {
			broken[p.k] = true
		}
	}
}

// runLate sends the late steps of the cases after an open-loop phase,
// in order, and returns how long they took.
func runLate(t target, cases []*kase, rec *recorder) time.Duration {
	t0 := time.Now()
	for _, k := range cases {
		for _, s := range k.steps {
			if s.late && k.id != "" {
				t1 := time.Now()
				err := s.do(t)
				rec.record(s.read, 0, time.Since(t1), err)
			}
		}
	}
	return time.Since(t0)
}

// errSkipped marks a request not sent because an earlier request of
// its case failed; it counts as failed.
var errSkipped = errors.New("skipped after an earlier failure")

// runOpenSenders runs one schedule per sender from a common start.
func runOpenSenders(t target, plans [][]planned, rec *recorder) time.Duration {
	recs := make([]recorder, len(plans))
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runOpen(t, plans[i], t0, &recs[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for i := range recs {
		rec.merge(&recs[i])
	}
	return elapsed
}

// quantile returns the q-quantile (nearest rank) of ds, sorting it.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
