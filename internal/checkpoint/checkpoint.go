// Package checkpoint persists bitmap-filter snapshots crash-safely and
// restores them across restarts.
//
// The paper's §4.2 argument — filter state is only k·2^n/8 bytes — makes
// periodic checkpointing cheap; what this package adds is the durability
// discipline around it:
//
//   - Save writes through a temp file, fsyncs it, atomically renames it
//     into place and fsyncs the directory, so a crash at ANY byte offset
//     of the write leaves either the previous checkpoint or the new one
//     on disk — never a torn file at the checkpoint path.
//   - The previous checkpoint is rotated to a ".bak" sibling before the
//     rename, so even a crash between the two renames (the only window
//     where the primary path is briefly absent) leaves a good file.
//   - Restore walks a fallback ladder — primary file, then backup, then
//     cold start — reporting which rung was used and why the earlier
//     rungs were rejected. Combined with the CRC32C framing of snapshot
//     format v2, a corrupt or truncated file is detected and skipped
//     instead of silently restoring garbage bits.
//   - Checkpointer runs the loop: periodic saves on a jittered interval
//     (so a fleet of routers does not thunder onto shared storage in
//     lockstep) with bounded exponential-backoff retries on write
//     failures, and counters/timestamps for metrics export.
//
// The filesystem is abstracted behind an internal interface so the tests
// can inject an in-memory filesystem that crashes at every byte offset
// and metadata operation, proving the "never restore corrupt state"
// property exhaustively.
package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"bitmapfilter/internal/xrand"
)

// BackupSuffix is appended to the checkpoint path for the last-good
// rotation file.
const BackupSuffix = ".bak"

// The checkpointer's schedule and retry policy.
const (
	// intervalJitter is the fraction of Interval each period is uniformly
	// perturbed by (±), so fleets don't checkpoint in lockstep.
	intervalJitter = 0.1
	// saveRetries bounds how many times a failed save is retried within
	// one checkpoint round.
	saveRetries = 3
	// firstBackoff is the first retry delay; it doubles per retry up to
	// maxBackoff.
	firstBackoff = 250 * time.Millisecond
	maxBackoff   = 8 * time.Second
)

// ErrNoWriter is returned by New when the Config carries no snapshot
// writer.
var ErrNoWriter = errors.New("checkpoint: config needs a Write function")

// Save atomically persists one snapshot to path: the bytes produced by
// write land in a temp file in the same directory, are fsynced, the
// previous checkpoint (if any) is rotated to path+BackupSuffix, and the
// temp file is renamed into place followed by a directory fsync. It
// returns the number of snapshot bytes written. On any error the
// checkpoint path still holds what it held before (or, in the brief
// rename window, the backup does).
func Save(path string, write func(io.Writer) error) (int64, error) {
	return save(osFS{}, path, write)
}

func save(fsys fileSystem, path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmp := f.Name()
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: close temp: %w", err)
	}
	// Rotate the last good checkpoint out of the way. A crash after this
	// rename leaves no primary file, which is exactly what the backup
	// rung of the Restore ladder is for.
	if err := fsys.Rename(path, path+BackupSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: rotate backup: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: publish: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return cw.n, nil
}

// countingWriter counts the snapshot bytes flowing into the temp file and
// normalizes short writes (n < len(p) with a nil error) into
// io.ErrShortWrite so a misbehaving file implementation cannot silently
// truncate a checkpoint.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// Outcome says which rung of the restore ladder produced the state the
// process is now running with.
type Outcome uint8

// Restore outcomes, from best to worst.
const (
	// OutcomePrimary: the checkpoint file itself loaded cleanly.
	OutcomePrimary Outcome = iota
	// OutcomeBackup: the primary was missing or corrupt, the ".bak"
	// rotation loaded cleanly.
	OutcomeBackup
	// OutcomeColdStartEmpty: no checkpoint exists (first boot, or the
	// operator removed it); the caller starts from an empty filter.
	OutcomeColdStartEmpty
	// OutcomeColdStartCorrupt: checkpoint file(s) exist but none loaded;
	// the caller starts from an empty filter and should alert.
	OutcomeColdStartCorrupt
)

// String names the outcome for logs and the restore-outcome metric.
func (o Outcome) String() string {
	switch o {
	case OutcomePrimary:
		return "primary"
	case OutcomeBackup:
		return "backup"
	case OutcomeColdStartEmpty:
		return "cold-start-empty"
	case OutcomeColdStartCorrupt:
		return "cold-start-corrupt"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Restored reports whether any snapshot state was loaded.
func (o Outcome) Restored() bool { return o == OutcomePrimary || o == OutcomeBackup }

// RestoreResult reports what Restore did, with each rejected rung's
// reason kept for distinct operator reporting.
type RestoreResult struct {
	// Outcome is the rung that produced the running state.
	Outcome Outcome
	// File is the file that loaded successfully ("" on cold start).
	File string
	// PrimaryErr is why the checkpoint file was rejected (nil when it
	// loaded; fs.ErrNotExist when absent).
	PrimaryErr error
	// BackupErr is why the backup was rejected (nil when it loaded or
	// was never tried because the primary succeeded).
	BackupErr error
}

// Report writes the one line a daemon logs about its restore, each rung of
// the ladder worded distinctly and led by prefix (the daemon's name): the
// clean outcomes to out, the ones an operator should look at to errOut.
// path is the checkpoint the daemon was configured with; with none there
// was no restore, and nothing to report.
func (r RestoreResult) Report(out, errOut io.Writer, prefix, path string) {
	if path == "" {
		return
	}
	switch r.Outcome {
	case OutcomePrimary:
		fmt.Fprintf(out, "%s: restored filter state from %s\n", prefix, r.File)
	case OutcomeBackup:
		fmt.Fprintf(errOut, "%s: checkpoint %s unusable (%v); restored from backup %s\n",
			prefix, path, r.PrimaryErr, r.File)
	case OutcomeColdStartEmpty:
		fmt.Fprintf(out, "%s: no checkpoint at %s; cold start\n", prefix, path)
	case OutcomeColdStartCorrupt:
		fmt.Fprintf(errOut, "%s: checkpoint unusable (primary: %v; backup: %v); COLD START — established flows will drop for up to T_e\n",
			prefix, r.PrimaryErr, r.BackupErr)
	}
}

// Restore walks the fallback ladder: the checkpoint at path, then
// path+BackupSuffix, then a cold start. load is called with each
// candidate stream and must return a non-nil error without committing
// any state if the stream is corrupt, truncated or otherwise unusable —
// core.ReadSnapshot and friends satisfy this by construction (they
// return a fresh filter or an error). Restore itself never fails: the
// worst case is a cold start, reported distinctly from a clean first
// boot.
func Restore(path string, load func(io.Reader) error) RestoreResult {
	return restore(osFS{}, path, load)
}

func restore(fsys fileSystem, path string, load func(io.Reader) error) RestoreResult {
	res := RestoreResult{}
	res.PrimaryErr = loadFrom(fsys, path, load)
	if res.PrimaryErr == nil {
		res.Outcome = OutcomePrimary
		res.File = path
		return res
	}
	res.BackupErr = loadFrom(fsys, path+BackupSuffix, load)
	if res.BackupErr == nil {
		res.Outcome = OutcomeBackup
		res.File = path + BackupSuffix
		return res
	}
	if errors.Is(res.PrimaryErr, fs.ErrNotExist) && errors.Is(res.BackupErr, fs.ErrNotExist) {
		res.Outcome = OutcomeColdStartEmpty
	} else {
		res.Outcome = OutcomeColdStartCorrupt
	}
	return res
}

// loadFrom opens one candidate file and runs load over it.
func loadFrom(fsys fileSystem, path string, load func(io.Reader) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return load(f)
}

// Config parameterizes a Checkpointer.
type Config struct {
	// Path is the checkpoint file; its directory must exist.
	Path string
	// Write streams one snapshot. It runs on the checkpointer's goroutine,
	// so it keeps off whatever else touches the filter: a core.Filter's
	// under its owner's lock (bfwall's under the pump's Locked), a
	// core.Sharded's or a tenant.Set's, which lock themselves, as it is.
	Write func(io.Writer) error
	// Interval between periodic checkpoints; it must be positive.
	Interval time.Duration
	// Heartbeat, when set, is called once per completed checkpoint round
	// (successful or not) — the liveness signal a resilience.Watchdog
	// probe uses to tell "checkpoints keep happening" from "the
	// checkpointer is wedged".
	Heartbeat func()
	// Logf, when set, receives one line per checkpoint outcome.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time view of the checkpointer for metrics export.
type Stats struct {
	// Interval is the configured base period.
	Interval time.Duration
	// Attempts counts save attempts, including retries.
	Attempts uint64
	// Successes counts completed checkpoints.
	Successes uint64
	// Failures counts failed save attempts.
	Failures uint64
	// LastSuccess is the completion time of the newest checkpoint
	// (zero if none yet).
	LastSuccess time.Time
	// LastBytes is the size of the newest checkpoint.
	LastBytes int64
	// LastError describes the most recent failed attempt ("" if the
	// most recent attempt succeeded).
	LastError string
}

// Checkpointer periodically persists snapshots of a live filter. Create
// one with New, call Start for the background loop, CheckpointNow for an
// immediate synchronous checkpoint (operator endpoint, SIGTERM), and
// Stop before exit.
type Checkpointer struct {
	cfg  Config
	fsys fileSystem
	// backoff is the first retry delay: firstBackoff, shortened by the
	// retry tests.
	backoff time.Duration

	// runMu serializes saves: a manual CheckpointNow never interleaves
	// bytes with a periodic save.
	runMu sync.Mutex

	mu    sync.Mutex    // guards stats, rng and the loop channels
	stats Stats         //bf:guardedby mu
	rng   *xrand.Rand   //bf:guardedby mu
	stop  chan struct{} //bf:guardedby mu
	done  chan struct{} //bf:guardedby mu
}

// New validates cfg and returns a Checkpointer. The loop is not started;
// CheckpointNow works immediately.
func New(cfg Config) (*Checkpointer, error) {
	if cfg.Write == nil {
		return nil, ErrNoWriter
	}
	if cfg.Path == "" {
		return nil, errors.New("checkpoint: config needs a path")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("checkpoint: interval %v is not positive", cfg.Interval)
	}
	return &Checkpointer{
		cfg:     cfg,
		fsys:    osFS{},
		backoff: firstBackoff,
		stats:   Stats{Interval: cfg.Interval},
		rng:     xrand.New(uint64(time.Now().UnixNano())),
	}, nil
}

// Start launches the periodic checkpoint goroutine. It returns an error
// if the loop is already running. Always pair with Stop.
func (c *Checkpointer) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return errors.New("checkpoint: already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	go c.loop(stop, done)
	return nil
}

// Stop halts the periodic loop and waits for it to exit (any in-flight
// save completes first). It does not take a final checkpoint; callers
// that want one (e.g. on SIGTERM) call CheckpointNow themselves so they
// can log the outcome.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (c *Checkpointer) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		t := time.NewTimer(c.nextInterval())
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		c.checkpoint(stop)
	}
}

// nextInterval returns the jittered period for the next checkpoint.
func (c *Checkpointer) nextInterval() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Uniform in [1-j, 1+j] × Interval.
	scale := 1 + intervalJitter*(2*c.rng.Float64()-1)
	return time.Duration(float64(c.cfg.Interval) * scale)
}

// CheckpointNow takes one checkpoint synchronously, with the same
// bounded-retry policy as the periodic loop, and returns the final
// error (nil on success).
func (c *Checkpointer) CheckpointNow() error {
	return c.checkpoint(nil)
}

// checkpoint runs one save round: attempt, then up to saveRetries
// retries with exponential backoff. A Stop during backoff abandons the
// round.
func (c *Checkpointer) checkpoint(stop <-chan struct{}) error {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.cfg.Heartbeat != nil {
		defer c.cfg.Heartbeat()
	}
	backoff := c.backoff
	var err error
	for attempt := 0; ; attempt++ {
		var n int64
		n, err = save(c.fsys, c.cfg.Path, c.cfg.Write)
		c.record(n, err)
		if err == nil {
			return nil
		}
		c.logf("checkpoint: attempt %d failed: %v", attempt+1, err)
		if attempt >= saveRetries {
			return err
		}
		t := time.NewTimer(backoff)
		select {
		case <-stop:
			t.Stop()
			return err
		case <-t.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// record folds one attempt's result into the stats.
func (c *Checkpointer) record(n int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Attempts++
	if err != nil {
		c.stats.Failures++
		c.stats.LastError = err.Error()
		return
	}
	c.stats.Successes++
	c.stats.LastSuccess = time.Now()
	c.stats.LastBytes = n
	c.stats.LastError = ""
}

func (c *Checkpointer) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Stats returns a copy of the current counters.
func (c *Checkpointer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
