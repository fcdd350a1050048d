package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bpms/internal/client"
	"bpms/internal/model"
)

// workload fixes the traffic of one benchmark workload. Rates are
// cases per second; the open-loop phase lasts -seconds.
type workload struct {
	name         string
	rounds       int     // each times a bpmsd set-up, its share of the closed loop and two recoveries
	closedCases  int     // cases of the closed-loop throughput phase, over all rounds
	openRate     float64 // case arrivals per second in the open-loop phase
	readEvery    int     // clearance: read back every n-th open-loop case
	noShowEvery  int     // dangerous-goods: every n-th early open-loop case has no arrival
	readRate     float64 // port-dashboard: operator reads per second
	auditLookups int     // full audit-trail reads of the oldest cases, after the last round
	lifeDone     int     // port-dashboard: finished cases recovered at set-up
	lifeActive   int     // port-dashboard: active cases recovered at set-up
}

func workloads() []workload {
	return []workload{
		{name: "clearance", rounds: 9, closedCases: 22500, openRate: 500, readEvery: 2, auditLookups: 5},
		{name: "dangerous-goods", rounds: 7, closedCases: 10500, openRate: 120, noShowEvery: 40, auditLookups: 2100},
		{name: "port-dashboard", rounds: 7, closedCases: 14000, openRate: 100, readRate: 200, auditLookups: 6,
			lifeDone: 5000, lifeActive: 250},
	}
}

// maxLateP50 invalidates a run whose generator sent half its requests
// later than this: it was then behind schedule for most of the phase,
// measuring a backlog rather than the stated rate. Lateness behind a
// server stall is expected and is part of the latencies.
const maxLateP50 = 20 * time.Millisecond

// deployHTTP deploys the definitions and registers the staff.
func deployHTTP(c *client.Client, deployed bool) error {
	if deployed {
		defs, err := c.Definitions(bg)
		if err != nil {
			return err
		}
		if len(defs) != 2 {
			return fmt.Errorf("recovered %d definitions, want 2", len(defs))
		}
	} else {
		for _, p := range []*model.Process{clearanceProcess(), dgProcess()} {
			if err := c.Deploy(bg, p); err != nil {
				return err
			}
		}
	}
	for _, hm := range harbourMasters {
		if err := c.AddUser(bg, hm, roleHarbour); err != nil {
			return err
		}
	}
	return c.AddUser(bg, userOfficer, "dg-officer")
}

// runE2E runs one untraced end-to-end run against bpmsd.
func runE2E(w workload, o options) (result, error) {
	dir := filepath.Join(o.work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer func() {
		// Synced, so the removal's block discards end within this run
		// rather than in the timing of the next one.
		os.RemoveAll(dir)
		syncDir(o.work)
	}()
	logPath := filepath.Join(dir, "bpmsd.log")
	p50, p999, err := fsyncProbe(dir, 2000)
	if err != nil {
		return result{}, fmt.Errorf("fsync probe: %w", err)
	}
	fmt.Fprintf(os.Stderr, "portbench: %s: data on %s (%s), fsync p50=%s p99.9=%s\n",
		w.name, dir, fsType(dir), p50, p999)

	var lt *lifetime
	var sealed map[string]string
	if w.lifeDone > 0 {
		t0 := time.Now()
		lt, err = buildLifetime(filepath.Join(dir, "lifetime"), o.seed, w.lifeDone, w.lifeActive)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "portbench: %s: built a lifetime of %d finished + %d active cases in %.1fs (untimed)\n",
			w.name, lt.done, lt.active, time.Since(t0).Seconds())
		if sealed, err = sealedState(lt.dir); err != nil {
			return result{}, err
		}
	}

	// Rounds: each round starts bpmsd on a data dir of its own and times
	// its set-up (exec to /readyz with the definitions deployed), its share
	// of the closed loop and, after its outputs are checked and it is
	// SIGKILLed, two restarts, the first checked for durability. So every
	// round gives independent samples of each, and the samples are spread
	// over the whole run. clearance and dangerous-goods start a
	// round on an empty data dir; port-dashboard on a fresh clone of its
	// lifetime, so every round recovers and extends the same state. The
	// last round also runs the open loop before it is checked and killed.
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var rec, open, audit recorder
	var checks []error
	var setups, rates, recovers, audits []float64
	var peaks []float64 // bpmsd peak RSS (VmHWM) of each round, MB
	var diskKB float64
	senders := runtime.NumCPU()
	closed := buildClosed(w, o.seed, senders)
	for i := 0; i < w.rounds; i++ {
		last := i == w.rounds-1
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		if lt != nil {
			if err := cloneDir(lt.dir, dataDir); err != nil {
				return result{}, fmt.Errorf("clone lifetime: %w", err)
			}
		}
		t0 := time.Now()
		s, _, err := startServer(o.bpmsd, dataDir, logPath)
		if err != nil {
			return result{}, err
		}
		srv = s
		if err := deployHTTP(s.c, lt != nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		// Closed loop: this round's cases, back to back on each sender.
		round := closed[i*len(closed)/w.rounds : (i+1)*len(closed)/w.rounds]
		d := runClosed(httpTarget{c: s.c}, round, senders, &rec)
		rates = append(rates, float64(len(round))/d.Seconds())
		all := append([]*kase(nil), round...) // the cases this server ran

		var roundLT *lifetime // the lifetime's own checks run once, in the last round
		if last {
			roundLT = lt
			openCases := runOpenPhase(w, o, s, lt, round, senders, &open, &rec)
			rec.merge(&open)
			all = append(all, openCases...)
		}
		checks = append(checks, checkOutputs(httpTarget{c: s.c}, all, roundLT)...)
		rss, err := s.peakRSSMB()
		if err != nil {
			return result{}, err
		}
		peaks = append(peaks, rss)
		s.kill()
		srv = nil
		if last {
			lifetimeCases := len(all)
			if lt != nil {
				lifetimeCases += lt.done + lt.active
			}
			diskKB = float64(dirBytes(dataDir)) / 1024 / float64(lifetimeCases)
		}

		// Recovery after SIGKILL, timed twice; the first restart also
		// checks durability.
		for r := 0; r < 2; r++ {
			s, d, err = startServer(o.bpmsd, dataDir, logPath)
			if err != nil {
				return result{}, err
			}
			srv = s
			recovers = append(recovers, d.Seconds())
			if r == 0 {
				checks = append(checks, checkDurable(s.c, all, lt)...)
			}
			if last && r == 1 {
				// Full audit trails of the oldest cases, on the restarted
				// server, where no snapshot or history backlog competes.
				oldest := all
				if lt != nil {
					oldest = lt.early
				}
				oldest = oldest[:min(len(oldest), 21)]
				// One untimed lookup warms the page cache.
				if _, err := (httpTarget{c: s.c}).history(oldest[0].id); err != nil {
					return result{}, err
				}
				audits = auditLookups(httpTarget{c: s.c}, oldest, w.auditLookups, senders, &audit)
			}
			s.kill()
			srv = nil
		}
		if !last {
			// Synced, so the removal's block discards end before the next round.
			if err := os.RemoveAll(dataDir); err != nil {
				return result{}, err
			}
			if err := syncDir(dir); err != nil {
				return result{}, err
			}
		}
	}
	progress(w, "closed loop: %d cases in %d rounds over %d connections: %.0f cases/s", len(closed), w.rounds, senders, rates)

	checks = append(checks, rec.checks...)
	checks = append(checks, audit.checks...)
	if lt != nil {
		if err := checkSealed(lt.dir, sealed); err != nil {
			checks = append(checks, err)
		}
	}
	rec.merge(&audit)
	progress(w, "audit lookups (reported, not gated): median %.3f ms of %d", medianF(audits), len(audits))
	progress(w, "set-ups %.4f s; recoveries %.4f s; peak RSS %.1f MB", setups, recovers, peaks)
	lateness := append([]time.Duration(nil), open.late...)
	lateP50, lateP99, lateMax := quantile(lateness, 0.5), quantile(lateness, 0.99), quantile(lateness, 1)
	length := time.Duration(o.seconds) * time.Second
	writes, reads := open.latencies(false), open.latencies(true)
	progress(w, "open loop %.0f cases/s for %s: %d writes, %d reads; lateness p50=%s p99=%s max=%s; %d/%d requests failed",
		w.openRate, length, len(writes), len(reads), lateP50, lateP99, lateMax, rec.failed, rec.attempted)
	progress(w, "tail (reported, not gated): writes p90=%.2f p99=%.2f ms, reads p90=%.2f p99=%.2f ms",
		ms(quantile(writes, 0.9)), ms(quantile(writes, 0.99)), ms(quantile(reads, 0.9)), ms(quantile(reads, 0.99)))
	for _, s := range open.slowest(3) {
		progress(w, "slow: %s due at %s took %s", s.what, s.due.Round(time.Millisecond), s.lat.Round(time.Microsecond))
	}
	if lateP50 > maxLateP50 {
		checks = append(checks, fmt.Errorf("generator fell behind: open-loop lateness p50 %s > %s", lateP50, maxLateP50))
	}
	for i, err := range checks {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "portbench: ... %d more failed checks\n", len(checks)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "portbench: CHECK FAILED:", err)
	}
	return result{
		Correct:   len(checks) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metric{
			"setup_s":          {medianF(setups), "s"},
			"cases_per_s":      {medianF(rates), "1/s"},
			"write_p50_ms":     {ms(quantile(writes, 0.50)), "ms"},
			"read_p50_ms":      {ms(quantile(reads, 0.50)), "ms"},
			"rss_mb":           {medianF(peaks), "MB"},
			"disk_kb_per_case": {diskKB, "KiB"},
			"recover_s":        {medianF(recovers), "s"},
		},
	}, nil
}

// runOpenPhase runs the open loop at a fixed rate for -seconds on s,
// recording into open, then the steps that wait on no-show timers,
// recording into rec, and returns the cases it started.
func runOpenPhase(w workload, o options, s *server, lt *lifetime, lastRound []*kase, senders int, open, rec *recorder) []*kase {
	tgt := httpTarget{c: s.c}
	plans, openCases := buildOpen(w, o.seed, senders, time.Duration(o.seconds)*time.Second, lt, lastRound)
	elapsed := runOpenSenders(tgt, plans, open)
	progress(w, "open loop: %.0f cases/s for %ds took %.2fs", w.openRate, o.seconds, elapsed.Seconds())
	var late recorder
	if d := runLate(tgt, openCases, &late); late.attempted > 0 {
		progress(w, "%d requests waiting on no-show timers took %.2fs after the open loop", late.attempted, d.Seconds())
	}
	rec.merge(&late)
	return openCases
}

// buildClosed generates the closed-loop cases of a workload.
func buildClosed(w workload, seed int64, senders int) []*kase {
	r := seedRand(seed, w.name+"/closed")
	gen := mixGen(seed, w.name+"/closed", 1_000_000)
	cases := make([]*kase, w.closedCases)
	for i := range cases {
		hm := harbourMasters[i%senders]
		switch w.name {
		case "clearance":
			cases[i] = newClearanceCase(genClearance(r), false)
		case "dangerous-goods":
			cases[i] = newDGCase(genDG(r, i, seed, false), hm)
		default:
			cases[i] = mixedCase(gen, i, hm, false)
		}
	}
	return cases
}

// buildOpen lays out the open-loop phase: case arrivals at a fixed
// rate spread over the senders, and on port-dashboard a second stream
// of operator reads at its own fixed rate.
// Recent audit trails are read from the last round's closed-loop cases,
// which are on the server and still inside the resident history window.
func buildOpen(w workload, seed int64, senders int, length time.Duration, lt *lifetime, lastRound []*kase) ([][]planned, []*kase) {
	r := seedRand(seed, w.name+"/open")
	gen := mixGen(seed, w.name+"/open", 2_000_000)
	n := int(w.openRate * length.Seconds())
	interval := time.Duration(float64(time.Second) / w.openRate)
	perSender := make([][]*kase, senders)
	arrivals := make([][]time.Duration, senders)
	var cases []*kase
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		s := i % senders
		if lt != nil {
			s = 0 // one connection writes, the other reads
		}
		hm := harbourMasters[s]
		var k *kase
		switch w.name {
		case "clearance":
			k = newClearanceCase(genClearance(r), w.readEvery > 0 && i%w.readEvery == 0)
		case "dangerous-goods":
			noShow := w.noShowEvery > 0 && i%w.noShowEvery == 0 && at < length/2
			k = newDGCase(genDG(r, 100000+i, seed, noShow), hm)
		default:
			k = mixedCase(gen, i, hm, false)
		}
		cases = append(cases, k)
		perSender[s] = append(perSender[s], k)
		arrivals[s] = append(arrivals[s], at)
	}
	plans := make([][]planned, senders)
	for s := range plans {
		plans[s] = schedule(perSender[s], arrivals[s])
	}
	if lt != nil && w.readRate > 0 {
		var recent []string
		for _, k := range lastRound[max(0, len(lastRound)-1000):] {
			recent = append(recent, k.id)
		}
		plans[1] = operatorReads(r, lt, recent, w.readRate, length)
	}
	return plans, cases
}

// operatorReads is the port-dashboard's read stream: the active-case
// list (10%), offered tasks by state (20%), instance details (40%) and
// recent audit trails (30%).
func operatorReads(r interface{ Intn(int) int }, lt *lifetime, recent []string, rate float64, length time.Duration) []planned {
	n := int(rate * length.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]planned, 0, n)
	for i := 0; i < n; i++ {
		var do func(t target) error
		switch x := r.Intn(10); {
		case x < 1:
			do = func(t target) error {
				total, err := t.listActive()
				if err == nil && total < lt.active {
					err = checkf("active list total %d, want at least %d", total, lt.active)
				}
				return err
			}
		case x < 3:
			do = func(t target) error { return t.tasksOffered() }
		case x < 7:
			id := lt.finished[r.Intn(len(lt.finished))]
			want := lt.finishedStatus[id]
			do = func(t target) error {
				v, err := t.instance(id)
				if err == nil && v.Status != want {
					err = checkf("instance %s status %s, want %s", id, v.Status, want)
				}
				return err
			}
		default:
			id := recent[r.Intn(len(recent))]
			do = func(t target) error {
				n, err := t.history(id)
				if err == nil && n == 0 {
					err = checkf("recent audit trail of %s is empty", id)
				}
				return err
			}
		}
		k := &kase{steps: []step{{read: true, do: do}}}
		out = append(out, planned{due: time.Duration(i) * interval, k: k})
	}
	return out
}

// checkOutputs checks the final state of the cases the server ran while
// it is still up: DG permits and completed work items, and on
// port-dashboard the list totals against the lifetime.
func checkOutputs(t httpTarget, cases []*kase, lt *lifetime) []error {
	var errs []error
	var dgItems []string
	for _, k := range cases {
		if k.dg == nil || k.id == "" {
			continue
		}
		dgItems = append(dgItems, k.id)
		v, err := t.instance(k.id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if v.Status != "completed" || v.Vars["permit"] != k.dg.permit() {
			errs = append(errs, checkf("dg %s: status %s permit %v, want completed %s", k.id, v.Status, v.Vars["permit"], k.dg.permit()))
		}
	}
	if len(dgItems) > 0 {
		// Each case completed exactly two work items, each once.
		page, err := t.c.Tasks(bg, client.TaskQuery{State: "completed"})
		if err != nil {
			return append(errs, err)
		}
		perCase := map[string]int{}
		seen := map[string]bool{}
		for _, it := range page.Items {
			if seen[it.ID] {
				errs = append(errs, checkf("work item %s listed as completed twice", it.ID))
			}
			seen[it.ID] = true
			perCase[it.InstanceID]++
		}
		for _, id := range dgItems {
			if perCase[id] != 2 {
				errs = append(errs, checkf("dg %s completed %d work items, want 2", id, perCase[id]))
			}
		}
	}
	if lt != nil {
		page, err := t.c.Instances(bg, client.InstanceQuery{})
		if err != nil {
			return append(errs, err)
		}
		if want := lt.done + lt.active + len(cases); page.Total != want {
			errs = append(errs, checkf("instance list total %d, want %d", page.Total, want))
		}
		active, err := t.listActive()
		if err != nil {
			return append(errs, err)
		}
		if active != lt.active {
			errs = append(errs, checkf("active list total %d, want %d", active, lt.active))
		}
		for _, k := range lt.early {
			n, err := t.history(k.id)
			if err == nil && n != k.events {
				err = checkf("audit trail of %s has %d events, want %d", k.id, n, k.events)
			}
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// auditLookups reads n full audit trails of the given cases, in turn,
// over `senders` connections, checks their lengths and returns each
// read's time in ms.
func auditLookups(t httpTarget, cases []*kase, n, senders int, rec *recorder) []float64 {
	times := make([]float64, n)
	recs := make([]recorder, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < n; j += senders {
				k := cases[j%len(cases)]
				t0 := time.Now()
				got, err := t.history(k.id)
				times[j] = ms(time.Since(t0))
				if err == nil && got != k.events {
					err = checkf("audit trail of %s has %d events, want %d", k.id, got, k.events)
				}
				recs[g].record(true, 0, 0, err)
			}
		}(g)
	}
	wg.Wait()
	for i := range recs {
		rec.merge(&recs[i])
	}
	return times
}

// checkDurable checks, after SIGKILL and restart, that every
// acknowledged case is back with its acknowledged status.
func checkDurable(c *client.Client, cases []*kase, lt *lifetime) []error {
	page, err := c.Instances(bg, client.InstanceQuery{})
	if err != nil {
		return []error{fmt.Errorf("list after restart: %w", err)}
	}
	got := make(map[string]string, len(page.Items))
	counts := map[string]int{}
	for _, it := range page.Items {
		got[it.ID] = it.Status
		counts[it.Status]++
	}
	var errs []error
	lost := 0
	for _, k := range cases {
		if k.id != "" && got[k.id] != k.status {
			lost++
			if lost <= 5 {
				errs = append(errs, checkf("acknowledged case %s recovered as %q, want %q", k.id, got[k.id], k.status))
			}
		}
	}
	if lost > 5 {
		errs = append(errs, checkf("%d acknowledged cases not recovered with their status", lost))
	}
	if lt != nil {
		for id, st := range lt.finishedStatus {
			if got[id] != st {
				errs = append(errs, checkf("lifetime case %s recovered as %q, want %q", id, got[id], st))
				break
			}
		}
		if counts["active"] != lt.active {
			errs = append(errs, checkf("%d active cases after restart, want %d", counts["active"], lt.active))
		}
	}
	return errs
}

func progress(w workload, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "portbench: %s: %s\n", w.name, fmt.Sprintf(format, args...))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
