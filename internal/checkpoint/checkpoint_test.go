package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/packet"
)

// testFilter returns a small filter with `marks` distinct flows marked,
// deterministically derived from seed.
func testFilter(t *testing.T, marks int, seed uint64) *core.Filter {
	t.Helper()
	f, err := core.New(core.WithOrder(6), core.WithVectors(2), core.WithHashes(2),
		core.WithRotateEvery(time.Second), core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := packet.AddrFrom4(10, 0, 0, 1)
	dst := packet.AddrFrom4(198, 51, 100, 7)
	for i := 0; i < marks; i++ {
		f.Process(packet.Packet{
			Time: time.Duration(i) * time.Millisecond,
			Tuple: packet.Tuple{Src: src, Dst: dst,
				SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.TCP},
			Dir: packet.Outgoing,
		})
	}
	return f
}

// snapBytes serializes f; identical filter state yields identical bytes,
// so snapshots double as state fingerprints.
func snapBytes(t *testing.T, f *core.Filter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadInto returns a load func capturing the restored filter.
func loadInto(got **core.Filter) func(io.Reader) error {
	return func(r io.Reader) error {
		f, err := core.ReadSnapshot(r)
		if err != nil {
			return err
		}
		*got = f
		return nil
	}
}

// runCrash executes fn, converting a memFS crash panic into a bool.
func runCrash(t *testing.T, fn func()) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSentinel); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

func TestSaveRestoreRoundTripOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bmf")
	f := testFilter(t, 50, 1)

	n, err := Save(path, f.WriteSnapshot)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if want := int64(len(snapBytes(t, f))); n != want {
		t.Errorf("Save reported %d bytes, want %d", n, want)
	}

	var got *core.Filter
	res := Restore(path, loadInto(&got))
	if res.Outcome != OutcomePrimary || res.File != path {
		t.Fatalf("Restore = %+v, want primary from %s", res, path)
	}
	if !bytes.Equal(snapBytes(t, got), snapBytes(t, f)) {
		t.Error("restored state differs from saved state")
	}

	// A second save rotates the first checkpoint to .bak.
	f2 := testFilter(t, 80, 1)
	if _, err := Save(path, f2.WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	bak, err := os.ReadFile(path + BackupSuffix)
	if err != nil {
		t.Fatalf("backup missing after rotation: %v", err)
	}
	if !bytes.Equal(bak, snapBytes(t, f)) {
		t.Error("backup does not hold the previous checkpoint")
	}

	// Corrupting the primary falls back to the backup.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got = nil
	res = Restore(path, loadInto(&got))
	if res.Outcome != OutcomeBackup {
		t.Fatalf("Restore after corruption = %v, want backup", res.Outcome)
	}
	if res.PrimaryErr == nil {
		t.Error("primary rejection reason not reported")
	}
	if !bytes.Equal(snapBytes(t, got), snapBytes(t, f)) {
		t.Error("backup restore does not match previous state")
	}
}

func TestRestoreLadderOutcomes(t *testing.T) {
	good := snapBytes(t, testFilter(t, 10, 2))
	const path = "/d/state.bmf"

	cases := []struct {
		name    string
		primary []byte // nil = absent
		backup  []byte
		want    Outcome
	}{
		{"no files", nil, nil, OutcomeColdStartEmpty},
		{"good primary", good, nil, OutcomePrimary},
		{"corrupt primary good backup", good[:len(good)/2], good, OutcomeBackup},
		{"missing primary good backup", nil, good, OutcomeBackup},
		{"both corrupt", []byte("x"), good[:10], OutcomeColdStartCorrupt},
		{"corrupt primary no backup", good[:len(good)-1], nil, OutcomeColdStartCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemFS()
			if tc.primary != nil {
				m.files[path] = tc.primary
			}
			if tc.backup != nil {
				m.files[path+BackupSuffix] = tc.backup
			}
			var got *core.Filter
			res := restore(m, path, loadInto(&got))
			if res.Outcome != tc.want {
				t.Fatalf("outcome = %v, want %v (result %+v)", res.Outcome, tc.want, res)
			}
			if res.Outcome.Restored() != (got != nil) {
				t.Errorf("Restored()=%v but filter=%v", res.Outcome.Restored(), got)
			}
			if res.Outcome == OutcomeColdStartEmpty &&
				(!errors.Is(res.PrimaryErr, fs.ErrNotExist) || !errors.Is(res.BackupErr, fs.ErrNotExist)) {
				t.Errorf("cold-start-empty should carry not-exist errors, got %v / %v",
					res.PrimaryErr, res.BackupErr)
			}
		})
	}
}

// Fault-injection writers: a writer that errors mid-stream, a writer that
// violates the io.Writer contract with silent short writes, and a torn
// writer that persists a prefix before failing. None may leave a bad
// checkpoint behind.
type failAfter struct {
	w io.Writer
	n int // bytes accepted before erroring
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("injected write failure")
	}
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n]) // torn: prefix lands, then the fault
		f.n = 0
		return n, errors.New("injected torn write")
	}
	f.n -= len(p)
	return f.w.Write(p)
}

type shortWriter struct{ w io.Writer }

func (s shortWriter) Write(p []byte) (int, error) {
	if len(p) > 1 {
		n, err := s.w.Write(p[:len(p)/2])
		return n, err // silent short write, no error
	}
	return s.w.Write(p)
}

func TestSaveWriterFaultsLeavePreviousCheckpoint(t *testing.T) {
	state1 := testFilter(t, 20, 3)
	state2 := testFilter(t, 40, 3)
	snapLen := len(snapBytes(t, state2))
	const path = "/d/state.bmf"

	base := newMemFS()
	if _, err := save(base, path, state1.WriteSnapshot); err != nil {
		t.Fatal(err)
	}

	faults := map[string]func(io.Writer) error{
		"fail immediately": func(w io.Writer) error {
			return state2.WriteSnapshot(&failAfter{w: w})
		},
		"torn mid-stream": func(w io.Writer) error {
			return state2.WriteSnapshot(&failAfter{w: w, n: snapLen / 2})
		},
		"short writes": func(w io.Writer) error {
			return state2.WriteSnapshot(shortWriter{w: w})
		},
	}
	for name, write := range faults {
		t.Run(name, func(t *testing.T) {
			m := base.clone()
			if _, err := save(m, path, write); err == nil {
				t.Fatal("faulty write did not error")
			}
			var got *core.Filter
			res := restore(m, path, loadInto(&got))
			if res.Outcome != OutcomePrimary {
				t.Fatalf("outcome = %v, want primary (previous checkpoint intact)", res.Outcome)
			}
			if !bytes.Equal(snapBytes(t, got), snapBytes(t, state1)) {
				t.Error("previous checkpoint damaged by failed save")
			}
			if n := len(m.names()); n != 1 {
				t.Errorf("temp file litter after failed save: %v", m.names())
			}
		})
	}
}

// TestCrashAtEveryByteOffset is the core acceptance property: whatever
// byte offset a crash kills the checkpoint write at, Restore afterwards
// returns either the previous good state or (once the new file is fully
// published) the new state — never an error-free load of corrupt bytes.
func TestCrashAtEveryByteOffset(t *testing.T) {
	state1 := testFilter(t, 20, 4)
	state2 := testFilter(t, 40, 4)
	snap1 := snapBytes(t, state1)
	snap2 := snapBytes(t, state2)
	const path = "/d/state.bmf"

	base := newMemFS()
	if _, err := save(base, path, state1.WriteSnapshot); err != nil {
		t.Fatal(err)
	}

	for offset := 0; offset <= len(snap2); offset++ {
		m := base.clone()
		m.byteBudget = offset
		crashed := runCrash(t, func() { _, _ = save(m, path, state2.WriteSnapshot) })
		if wantCrash := offset < len(snap2); crashed != wantCrash {
			t.Fatalf("offset %d: crashed=%v, want %v", offset, crashed, wantCrash)
		}
		m.byteBudget = -1

		var got *core.Filter
		res := restore(m, path, loadInto(&got))
		if !res.Outcome.Restored() {
			t.Fatalf("offset %d: restore outcome %v, want a restored state (%+v)",
				offset, res.Outcome, res)
		}
		gotSnap := snapBytes(t, got)
		if !bytes.Equal(gotSnap, snap1) && !bytes.Equal(gotSnap, snap2) {
			t.Fatalf("offset %d: restored state is neither the previous nor the new checkpoint", offset)
		}
		if crashed && !bytes.Equal(gotSnap, snap1) {
			// The crash hit before the rename, so the previous state
			// must be what comes back.
			t.Fatalf("offset %d: crash during temp write must restore the previous state", offset)
		}
	}
}

// TestCrashAtEveryMetadataOp kills the process immediately before each
// filesystem metadata operation of a save (create, fsync, the two
// renames, the directory fsync) and checks the restore ladder lands on a
// good state every time — including the window between the renames where
// only the backup exists.
func TestCrashAtEveryMetadataOp(t *testing.T) {
	state1 := testFilter(t, 20, 5)
	state2 := testFilter(t, 40, 5)
	snap1 := snapBytes(t, state1)
	snap2 := snapBytes(t, state2)
	const path = "/d/state.bmf"

	base := newMemFS()
	if _, err := save(base, path, state1.WriteSnapshot); err != nil {
		t.Fatal(err)
	}

	// Op order in save: CreateTemp, file.Sync, Rename(path→bak),
	// Rename(tmp→path), SyncDir.
	want := []struct {
		desc    string
		outcome Outcome
		state   []byte
	}{
		{"crash before CreateTemp", OutcomePrimary, snap1},
		{"crash before temp fsync", OutcomePrimary, snap1},
		{"crash before backup rotation", OutcomePrimary, snap1},
		{"crash between renames", OutcomeBackup, snap1},
		{"crash before dir fsync", OutcomePrimary, snap2},
		{"no crash", OutcomePrimary, snap2},
	}
	for budget, w := range want {
		m := base.clone()
		m.opBudget = budget
		crashed := runCrash(t, func() { _, _ = save(m, path, state2.WriteSnapshot) })
		if wantCrash := budget < len(want)-1; crashed != wantCrash {
			t.Fatalf("%s: crashed=%v, want %v", w.desc, crashed, wantCrash)
		}
		m.opBudget = -1

		var got *core.Filter
		res := restore(m, path, loadInto(&got))
		if res.Outcome != w.outcome {
			t.Fatalf("%s: outcome %v, want %v (%+v)", w.desc, res.Outcome, w.outcome, res)
		}
		if !bytes.Equal(snapBytes(t, got), w.state) {
			t.Fatalf("%s: wrong state restored", w.desc)
		}
	}
}

// TestEveryBitFlipDetected flips each bit of a checkpoint file in turn:
// the mutated primary must never load (CRC framing), and the ladder must
// fall back to the intact backup.
func TestEveryBitFlipDetected(t *testing.T) {
	state := testFilter(t, 30, 6)
	snap := snapBytes(t, state)
	const path = "/d/state.bmf"

	for bit := 0; bit < len(snap)*8; bit++ {
		mutated := bytes.Clone(snap)
		mutated[bit/8] ^= 1 << (bit % 8)

		if _, err := core.ReadSnapshot(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("bit flip at %d accepted by ReadSnapshot", bit)
		}

		m := newMemFS()
		m.files[path] = mutated
		m.files[path+BackupSuffix] = bytes.Clone(snap)
		var got *core.Filter
		res := restore(m, path, loadInto(&got))
		if res.Outcome != OutcomeBackup {
			t.Fatalf("bit flip at %d: outcome %v, want backup", bit, res.Outcome)
		}
		if !bytes.Equal(snapBytes(t, got), snap) {
			t.Fatalf("bit flip at %d: backup restore wrong", bit)
		}
	}
}

// flakyFS fails the first n CreateTemp calls with an ordinary error (a
// transient failure, not a crash).
type flakyFS struct {
	fileSystem
	failures int
}

func (f *flakyFS) CreateTemp(dir, pattern string) (writableFile, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient storage failure")
	}
	return f.fileSystem.CreateTemp(dir, pattern)
}

func TestCheckpointNowRetriesTransientFailures(t *testing.T) {
	f := testFilter(t, 10, 7)
	c, err := New(Config{
		Path:     "/d/state.bmf",
		Write:    f.WriteSnapshot,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.fsys = &flakyFS{fileSystem: newMemFS(), failures: 2}
	c.backoff = time.Microsecond

	if err := c.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow with 2 transient failures and %d retries: %v", saveRetries, err)
	}
	s := c.Stats()
	if s.Attempts != 3 || s.Failures != 2 || s.Successes != 1 {
		t.Errorf("stats = %+v, want 3 attempts / 2 failures / 1 success", s)
	}
	if s.LastError != "" {
		t.Errorf("LastError = %q after a success", s.LastError)
	}
	if s.LastSuccess.IsZero() || s.LastBytes == 0 {
		t.Errorf("success not recorded: %+v", s)
	}
}

func TestCheckpointNowExhaustsRetries(t *testing.T) {
	f := testFilter(t, 10, 8)
	c, err := New(Config{
		Path:     "/d/state.bmf",
		Write:    f.WriteSnapshot,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.fsys = &flakyFS{fileSystem: newMemFS(), failures: 10}
	c.backoff = time.Microsecond

	if err := c.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow succeeded with persistent failures")
	}
	s := c.Stats()
	if want := uint64(1 + saveRetries); s.Attempts != want || s.Failures != want || s.Successes != 0 {
		t.Errorf("stats = %+v, want %d attempts / %d failures / 0 successes", s, want, want)
	}
	if !strings.Contains(s.LastError, "transient storage failure") {
		t.Errorf("LastError = %q", s.LastError)
	}
}

func TestCheckpointerPeriodicLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bmf")
	f := testFilter(t, 10, 9)
	c, err := New(Config{
		Path:     path,
		Write:    f.WriteSnapshot,
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Error("second Start did not error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Successes < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic loop produced %d checkpoints in 5s", c.Stats().Successes)
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent

	var got *core.Filter
	if res := Restore(path, loadInto(&got)); res.Outcome != OutcomePrimary {
		t.Fatalf("restore after periodic checkpoints: %+v", res)
	}
}

func TestNextIntervalJitterBounds(t *testing.T) {
	c, err := New(Config{
		Path:     "/d/s",
		Write:    func(io.Writer) error { return nil },
		Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := time.Duration(float64(time.Second)*(1-intervalJitter)), time.Duration(float64(time.Second)*(1+intervalJitter))
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := c.nextInterval()
		if d < lo || d > hi {
			t.Fatalf("jittered interval %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct intervals", len(seen))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Path: "/d/s"}); !errors.Is(err, ErrNoWriter) {
		t.Errorf("missing Write: %v", err)
	}
	if _, err := New(Config{Write: func(io.Writer) error { return nil }}); err == nil {
		t.Error("missing Path accepted")
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if _, err := New(Config{Path: "/d/s", Write: func(io.Writer) error { return nil }, Interval: d}); err == nil {
			t.Errorf("interval %v accepted", d)
		}
	}
}

// blockingWrite is a snapshot writer that reports each entry on entered and
// returns once release is closed.
type blockingWrite struct{ entered, release chan struct{} }

func newBlockingWrite() *blockingWrite {
	return &blockingWrite{entered: make(chan struct{}, 2), release: make(chan struct{})}
}

func (b *blockingWrite) write(io.Writer) error {
	b.entered <- struct{}{}
	<-b.release
	return nil
}

// TestStopJoinsLoop: Stop must not return while the loop is inside a save,
// for the caller's next step may be the final checkpoint or the exit.
func TestStopJoinsLoop(t *testing.T) {
	w := newBlockingWrite()
	c, err := New(Config{Path: filepath.Join(t.TempDir(), "state.bmf"), Write: w.write, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	<-w.entered
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the loop was still inside a save")
	case <-time.After(50 * time.Millisecond):
	}
	close(w.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the save finished")
	}
}

// TestCheckpointNowSerializes: two CheckpointNow calls at once never
// overlap inside Write — their bytes would interleave in one snapshot's
// temp file or race the filter's lock discipline.
func TestCheckpointNowSerializes(t *testing.T) {
	w := newBlockingWrite()
	c, err := New(Config{Path: filepath.Join(t.TempDir(), "state.bmf"), Write: w.write, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- c.CheckpointNow() }()
	<-w.entered
	go func() { errs <- c.CheckpointNow() }()
	select {
	case <-w.entered:
		t.Error("a second save entered Write while the first was inside it")
	case <-time.After(50 * time.Millisecond):
	}
	close(w.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStopDuringRetryBackoff: a save round waiting out its retry backoff
// gives up as soon as Stop is called, and Stop returns.
func TestStopDuringRetryBackoff(t *testing.T) {
	c, err := New(Config{Path: "/d/state.bmf", Write: testFilter(t, 10, 11).WriteSnapshot, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.fsys = &flakyFS{fileSystem: newMemFS(), failures: 1 << 30}
	c.backoff = time.Hour
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Failures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the loop never attempted a save")
		}
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waited out an hour of retry backoff")
	}
	if s := c.Stats(); s.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (the round abandoned at its first backoff)", s.Attempts)
	}
}

// TestHeartbeatOncePerRound: the checkpoint probe beats once per round,
// whether the round succeeded or failed after all its retries.
func TestHeartbeatOncePerRound(t *testing.T) {
	beats := 0
	c, err := New(Config{Path: "/d/state.bmf", Write: testFilter(t, 10, 12).WriteSnapshot, Interval: time.Hour,
		Heartbeat: func() { beats++ }})
	if err != nil {
		t.Fatal(err)
	}
	fsys := &flakyFS{fileSystem: newMemFS()}
	c.fsys = fsys
	c.backoff = time.Microsecond
	if err := c.CheckpointNow(); err != nil || beats != 1 {
		t.Fatalf("a successful round: %v, %d beats, want 1", err, beats)
	}
	fsys.failures = 1 + saveRetries
	if err := c.CheckpointNow(); err == nil || beats != 2 {
		t.Fatalf("a failed round of %d attempts: %v, %d beats, want 2", 1+saveRetries, err, beats)
	}
}

func TestCountingWriterNormalizesShortWrites(t *testing.T) {
	cw := &countingWriter{w: shortWriter{w: io.Discard}}
	if _, err := cw.Write(make([]byte, 100)); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("short write surfaced as %v, want io.ErrShortWrite", err)
	}
}

// TestRestoreNeverCommitsPartialState pins the load-callback contract the
// ladder depends on: when a rung fails, nothing the callback captured may
// be used. The ladder guarantees this by only reporting the rung that
// returned nil.
func TestRestoreNeverCommitsPartialState(t *testing.T) {
	good := snapBytes(t, testFilter(t, 10, 10))
	m := newMemFS()
	m.files["/d/state.bmf"] = good[:len(good)-3] // truncated primary
	m.files["/d/state.bmf"+BackupSuffix] = good

	calls := 0
	var got *core.Filter
	res := restore(m, "/d/state.bmf", func(r io.Reader) error {
		calls++
		f, err := core.ReadSnapshot(r)
		if err != nil {
			return err
		}
		got = f
		return nil
	})
	if calls != 2 {
		t.Errorf("ladder made %d load calls, want 2", calls)
	}
	if res.Outcome != OutcomeBackup || got == nil {
		t.Fatalf("res=%+v got=%v", res, got)
	}
	if !bytes.Equal(snapBytes(t, got), good) {
		t.Error("backup state wrong")
	}
	if res.PrimaryErr == nil || !errors.Is(res.PrimaryErr, core.ErrSnapshotCorrupt) {
		t.Errorf("PrimaryErr = %v, want ErrSnapshotCorrupt", res.PrimaryErr)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomePrimary:          "primary",
		OutcomeBackup:           "backup",
		OutcomeColdStartEmpty:   "cold-start-empty",
		OutcomeColdStartCorrupt: "cold-start-corrupt",
		Outcome(9):              "outcome(9)",
	} {
		if got := fmt.Sprint(o); got != want {
			t.Errorf("Outcome(%d) = %q, want %q", o, got, want)
		}
	}
}

// TestRestoreResultReport: one line per outcome, under the daemon's own
// name; a restore an operator should look at goes to errOut, and a daemon
// with no checkpoint configured has nothing to say.
func TestRestoreResultReport(t *testing.T) {
	bad := errors.New("crc mismatch")
	for _, tc := range []struct {
		res       RestoreResult
		alarm     bool
		wantParts []string
	}{
		{RestoreResult{Outcome: OutcomePrimary, File: "s.bmf"}, false, []string{"bfwall: restored filter state from s.bmf"}},
		{RestoreResult{Outcome: OutcomeBackup, File: "s.bmf.bak", PrimaryErr: bad}, true, []string{"bfwall: checkpoint s.bmf unusable (crc mismatch)", "restored from backup s.bmf.bak"}},
		{RestoreResult{Outcome: OutcomeColdStartEmpty}, false, []string{"bfwall: no checkpoint at s.bmf; cold start"}},
		{RestoreResult{Outcome: OutcomeColdStartCorrupt, PrimaryErr: bad, BackupErr: bad}, true, []string{"bfwall: checkpoint unusable", "COLD START"}},
	} {
		var out, errOut bytes.Buffer
		tc.res.Report(&out, &errOut, "bfwall", "s.bmf")
		said, silent := &out, &errOut
		if tc.alarm {
			said, silent = &errOut, &out
		}
		if silent.Len() != 0 || strings.Count(said.String(), "\n") != 1 {
			t.Errorf("%v: out %q, errOut %q", tc.res.Outcome, out.String(), errOut.String())
		}
		for _, part := range tc.wantParts {
			if !strings.Contains(said.String(), part) {
				t.Errorf("%v: %q lacks %q", tc.res.Outcome, said.String(), part)
			}
		}
		out.Reset()
		errOut.Reset()
		if tc.res.Report(&out, &errOut, "bfwall", ""); out.Len()+errOut.Len() != 0 {
			t.Errorf("%v with no checkpoint path: out %q, errOut %q", tc.res.Outcome, out.String(), errOut.String())
		}
	}
}
