package core

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bpms/internal/engine"
	"bpms/internal/fault"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// startUntilFault drives StartInstance until the injected fault
// surfaces as an error (or the attempt budget runs out).
func startUntilFault(t *testing.T, b *BPMS) error {
	t.Helper()
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := b.Engine.StartInstance("seq-1", nil); err != nil {
			return err
		}
	}
	return nil
}

// testFailStop exercises the full fail-stop path under one sync
// policy: an injected fsync fault on the state journal must surface
// as an error from the durable write, flip the owning shard into
// read-only degraded mode, fire the OnDegrade callback, and refuse
// subsequent writes with engine.ErrDegraded while reads still serve.
func testFailStop(t *testing.T, policy storage.SyncPolicy, durable bool) {
	var degradedShard atomic.Int64
	degradedShard.Store(-1)
	b, err := Open(Options{
		DataDir:    t.TempDir(),
		SyncPolicy: policy,
		Durable:    durable,
		// Fail the 3rd fsync on the state journal only (the deploy
		// record eats the first); history and snapshots stay healthy.
		FS: fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", FailFsyncAt: 3}),
		OnDegrade: func(shard int, reason string) {
			degradedShard.Store(int64(shard))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	err = startUntilFault(t, b)
	if err == nil {
		t.Fatal("no error surfaced from injected fsync fault")
	}
	if !errors.Is(err, fault.ErrInjected) && !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("fault surfaced as unclassified error: %v", err)
	}

	// The shard fail-stopped: callback fired, stats show it, Ready is
	// false.
	if degradedShard.Load() != 0 {
		t.Fatalf("OnDegrade shard = %d, want 0", degradedShard.Load())
	}
	ready, degraded := b.Ready()
	if ready || len(degraded) != 1 || degraded[0] != 0 {
		t.Fatalf("Ready() = %v %v, want false [0]", ready, degraded)
	}
	stats := b.ShardStats()
	if len(stats) != 1 || !stats[0].Degraded || stats[0].DegradedReason == "" {
		t.Fatalf("ShardStats degraded not reported: %+v", stats)
	}

	// Writes are refused with the documented sentinel...
	if _, err := b.Engine.StartInstance("seq-1", nil); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("write on degraded shard: %v, want ErrDegraded", err)
	}
	// ...while reads still serve from the frozen state.
	if got := b.Engine.Definitions(); len(got) != 1 {
		t.Fatalf("reads blocked on degraded shard: %d definitions", len(got))
	}
	if ids := b.Engine.Instances(); len(ids) == 0 {
		t.Fatal("no instances readable on degraded shard")
	}
}

func TestFailStopOnFsyncFaultSyncAlways(t *testing.T) {
	testFailStop(t, storage.SyncAlways, true)
}

func TestFailStopOnFsyncFaultSyncBatch(t *testing.T) {
	testFailStop(t, storage.SyncBatch, true)
}

// TestFailStopENOSPC drives the journal into a byte-budget wall: once
// the device is "full", the shard fail-stops instead of acking writes
// it can no longer persist.
func TestFailStopENOSPC(t *testing.T) {
	b, err := Open(Options{
		DataDir:    t.TempDir(),
		SyncPolicy: storage.SyncAlways,
		Durable:    true,
		FS:         fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", ENOSPCAfter: 4096}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	err = startUntilFault(t, b)
	if err == nil {
		t.Fatal("no error surfaced from ENOSPC budget")
	}
	if ready, _ := b.Ready(); ready {
		t.Fatal("still ready after ENOSPC fail-stop")
	}
}

// TestFaultReportExposed verifies the injector's counters reach the
// system surface (scraped by /api/stats before a chaos kill).
func TestFaultReportExposed(t *testing.T) {
	inj := fault.NewInjector(fault.OS, fault.Plan{})
	b, err := Open(Options{DataDir: t.TempDir(), SyncPolicy: storage.SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Engine.StartInstance("seq-1", nil); err != nil {
		t.Fatal(err)
	}
	rep, ok := b.FaultReport()
	if !ok {
		t.Fatal("FaultReport not exposed through injector-backed FS")
	}
	if rep.Writes == 0 || rep.Fsyncs == 0 {
		t.Fatalf("empty fault report: %+v", rep)
	}

	// A plain-OS system exposes no report.
	b2, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if _, ok := b2.FaultReport(); ok {
		t.Fatal("FaultReport claimed on non-injected FS")
	}
}

// TestRecoveryAfterFailStop is the chaos contract: every write acked
// before the fault survives a kill-and-restart of the data dir (the
// degraded shard froze instead of corrupting its journal).
func TestRecoveryAfterFailStop(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{
		DataDir:    dir,
		SyncPolicy: storage.SyncAlways,
		Durable:    true,
		FS:         fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", FailFsyncAt: 4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 100; i++ {
		v, err := b.Engine.StartInstance("seq-1", nil)
		if err != nil {
			break
		}
		acked = append(acked, v.ID)
	}
	if len(acked) == 0 {
		t.Fatal("no instance acked before fault")
	}
	// Abandon without Close: the crash. (Close on a degraded system is
	// exercised elsewhere; here nothing may flush the lost write.)
	_ = b

	b2, err := Open(Options{DataDir: dir, SyncPolicy: storage.SyncAlways, Durable: true})
	if err != nil {
		t.Fatalf("recovery after fail-stop: %v", err)
	}
	defer b2.Close()
	if ready, _ := b2.Ready(); !ready {
		t.Fatal("recovered system not ready")
	}
	for _, id := range acked {
		if _, err := b2.Engine.Instance(id); err != nil {
			t.Fatalf("acked instance %s lost after restart: %v", id, err)
		}
	}
}

// TestCloseDuringSnapshot closes the system while a forced snapshot is
// still writing (its fsyncs slowed down): Close must wait for it, so
// the snapshot never truncates a closed journal and no shard
// fail-stops.
func TestCloseDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	var degraded atomic.Value
	b, err := Open(Options{
		DataDir: dir,
		FS:      fault.NewInjector(fault.OS, fault.Plan{PathContains: "snapshots", FsyncLatency: 150 * time.Millisecond}),
		OnDegrade: func(shard int, reason string) {
			degraded.Store(reason)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Engine.StartInstance("seq-1", nil); err != nil {
			t.Fatal(err)
		}
	}
	snapErr := make(chan error, 1)
	go func() { snapErr <- b.Engine.Snapshot() }()
	// Close once the snapshot's temp file exists: the writer is busy.
	snapDir := filepath.Join(dir, "snapshots")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if names, _ := filepath.Glob(filepath.Join(snapDir, "*.tmp")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never started")
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-snapErr; err != nil {
		t.Errorf("forced snapshot: %v", err)
	}
	if reason := degraded.Load(); reason != nil {
		t.Fatalf("OnDegrade fired during Close: %v", reason)
	}
	if names, _ := filepath.Glob(filepath.Join(snapDir, "*.snap")); len(names) != 1 {
		t.Errorf("committed snapshots %v, want 1", names)
	}
}
