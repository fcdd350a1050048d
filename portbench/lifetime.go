package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/core"
	"bpms/internal/fault"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// bpmsdOptions mirrors the options cmd/bpmsd builds from its default
// flags with -data dir.
func bpmsdOptions(dir string, fs fault.FS) core.Options {
	return core.Options{
		DataDir:         dir,
		Shards:          1,
		SyncPolicy:      storage.SyncBatch,
		SyncInterval:    256,
		BatchMaxDelay:   2 * time.Millisecond,
		Durable:         true,
		HistoryStripes:  1,
		HistoryWindow:   100000,
		WorklistStripes: 1,
		RunTimers:       true,
		SnapshotEvery:   1000,
		FS:              fs,
	}
}

// deployInProcess deploys the workload definitions and staff.
func deployInProcess(b *core.BPMS) error {
	for _, p := range []*model.Process{clearanceProcess(), dgProcess()} {
		if err := b.Engine.Deploy(p); err != nil {
			return err
		}
	}
	for _, hm := range harbourMasters {
		b.AddUser(hm, roleHarbour)
	}
	b.AddUser(userOfficer, "dg-officer")
	return nil
}

// lifetime is a pre-built data directory of finished and active cases.
type lifetime struct {
	dir            string
	done, active   int
	early          []*kase  // first finished cases: evicted from the resident history
	recent         []string // last finished cases: resident
	finished       []string // every finished case ID
	finishedStatus map[string]string
}

// mixedCase draws the port-dashboard write mix: 70% clearance
// declarations, 30% dangerous-goods declarations.
func mixedCase(gen func(n int) (clearanceIn, dgIn), n int, hm string, readBack bool) *kase {
	cl, dg := gen(n)
	if n%10 < 7 {
		return newClearanceCase(cl, readBack)
	}
	return newDGCase(dg, hm)
}

// mixGen returns a deterministic per-index input generator. Port-call
// IDs start at keyBase, so streams that share a server never share a
// correlation key.
func mixGen(seed int64, stream string, keyBase int) func(n int) (clearanceIn, dgIn) {
	return func(n int) (clearanceIn, dgIn) {
		r := seedRand(seed+int64(n)*7919, stream)
		return genClearance(r), genDG(r, keyBase+n, seed, false)
	}
}

// buildLifetime runs done finished and active open cases of the
// port-dashboard mix through the commit's own core, in process, with
// bpmsd's default options, and closes it.
//
// The build runs without the append-count snapshot trigger and writes
// one snapshot at the end instead, so its cost stays linear in the
// lifetime; bpmsd then recovers from that snapshot and a short WAL tail.
func buildLifetime(dir string, seed int64, done, active int) (*lifetime, error) {
	opts := bpmsdOptions(dir, nil)
	opts.SnapshotEvery = 0
	b, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := deployInProcess(b); err != nil {
		b.Close()
		return nil, err
	}
	gen := mixGen(seed, "lifetime", 0)
	cases := make([]*kase, done+active)
	for i := range cases {
		if i < done {
			cases[i] = mixedCase(gen, i, harbourMasters[i%len(harbourMasters)], false)
			continue
		}
		// Active: declared, vessel arrived, inspection on offer.
		_, dg := gen(i)
		cases[i] = newDGCase(dg, harbourMasters[0])
		cases[i].steps = cases[i].steps[:2]
	}
	t := directTarget{b: b}
	var next atomic.Int64
	var wg sync.WaitGroup
	recs := make([]recorder, 8) // parallel starts share group commits
	for w := range recs {
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(cases); n = int(next.Add(1)) - 1 {
				runCase(t, cases[n], r)
			}
		}(&recs[w])
	}
	wg.Wait()
	var rec recorder
	for i := range recs {
		rec.merge(&recs[i])
	}
	if err := b.Engine.Snapshot(); err != nil {
		b.Close()
		return nil, fmt.Errorf("snapshot lifetime: %w", err)
	}
	if err := b.Close(); err != nil {
		return nil, fmt.Errorf("close lifetime: %w", err)
	}
	if rec.failed > 0 || len(rec.checks) > 0 {
		return nil, fmt.Errorf("lifetime: %d failed requests, %d wrong outputs (%v)", rec.failed, len(rec.checks), rec.checks)
	}
	lt := &lifetime{dir: dir, done: done, active: active, finishedStatus: map[string]string{}}
	for i, k := range cases[:done] {
		lt.finished = append(lt.finished, k.id)
		lt.finishedStatus[k.id] = k.status
		if i < 3 {
			lt.early = append(lt.early, k)
		}
		if i >= done-500 {
			lt.recent = append(lt.recent, k.id)
		}
	}
	return lt, nil
}

// cloneDir makes dst a private copy of the data directory src without
// copying the bulk of it: the last file of each directory, which holds
// the active WAL segment bpmsd appends to or truncates, is copied and
// synced; every other file is sealed and is hard-linked. bpmsd replaces
// such files (snapshots are renamed into place, old segments removed)
// but never writes into them, which checkSealed verifies.
func cloneDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	last := -1
	for i, e := range entries {
		if e.Type().IsRegular() {
			last = i
		}
	}
	for i, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		switch {
		case e.IsDir():
			err = cloneDir(from, to)
		case i == last:
			err = copyFile(from, to)
		default:
			err = os.Link(from, to)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sealedState records the size and modification time of every file
// under dir, to detect a write into a hard-linked file.
func sealedState(dir string) (map[string]string, error) {
	state := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		state[path] = fmt.Sprintf("%d %d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	return state, err
}

// checkSealed fails when a file of the lifetime changed since want was
// recorded: bpmsd wrote into a file the rounds share.
func checkSealed(dir string, want map[string]string) error {
	got, err := sealedState(dir)
	if err != nil {
		return err
	}
	for path, st := range want {
		if got[path] != st {
			return fmt.Errorf("lifetime file %s changed (%s, was %s): a round wrote into a hard-linked file", path, got[path], st)
		}
	}
	return nil
}
