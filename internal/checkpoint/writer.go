package checkpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/obs"
)

// Metrics is the writer's optional telemetry bundle; fields are
// nil-safe and a nil bundle costs nothing.
type Metrics struct {
	// Write observes the wall duration of every checkpoint attempt that
	// wrote a chunk (skips excluded — they are the no-work path).
	Write *obs.Histogram
	// Flight receives a checkpoint-cut trace event per written chunk,
	// tagged "baseline", "delta" or "compacted".
	Flight *obs.Recorder
}

// DefaultMaxDeltas bounds the delta chain: once a baseline has this many
// deltas behind it, the next checkpoint folds the chain into a fresh
// baseline. Longer chains make checkpoints cheaper but restores slower
// and the directory larger; eight keeps restore O(small multiple of
// inventory) while amortizing baseline cost well past the knee.
const DefaultMaxDeltas = 8

// Options configures a Writer.
type Options struct {
	// MaxDeltas caps the delta chain before compaction
	// (DefaultMaxDeltas when zero or negative).
	MaxDeltas int
}

// Result reports one checkpoint's effort, for logs and metrics.
type Result struct {
	// Full marks a baseline, Compacted one that folded a delta chain.
	Full      bool
	Compacted bool
	// Skipped means nothing changed since the cursor: no bytes written,
	// manifest untouched.
	Skipped bool
	// Bytes is the chunk file's size; Services its service-record count.
	Bytes    int64
	Services int
	// ShardsChanged / ShardsSkipped report which engine shards had
	// anything to export.
	ShardsChanged int
	ShardsSkipped int
	Duration      time.Duration
}

// Stats aggregates a Writer's lifetime effort, for /metrics.
type Stats struct {
	// Checkpoints counts completed checkpoints (skipped ones included);
	// Baselines those that wrote a full chunk; Failures failed attempts.
	Checkpoints uint64
	Baselines   uint64
	Failures    uint64
	// BytesWritten is cumulative; LastBytes and LastDuration describe
	// the most recent completed checkpoint.
	BytesWritten uint64
	LastBytes    uint64
	LastDuration time.Duration
	// ChunksSkipped counts shard exports that carried nothing since the
	// cursor: the incremental machinery's payoff counter.
	ChunksSkipped uint64
}

// Writer checkpoints one engine into one directory. Methods are
// serialized internally; a ticker goroutine and a shutdown path may call
// Checkpoint concurrently.
type Writer struct {
	eng   Engine
	dir   string
	opts  Options
	runID string

	mu    sync.Mutex
	man   *Manifest
	cur   *core.CheckpointCursor
	seq   int
	stats Stats
	met   *Metrics
}

// NewWriter prepares a writer on dir, creating it if needed. The first
// Checkpoint writes a full baseline; to continue an existing directory's
// chain the process must first Restore into the engine, and even then
// the next checkpoint is a baseline (a cursor lives only in the process that
// made it) — which also replaces the old chain, so a restored process never
// appends to chunks written by its predecessor.
func NewWriter(eng Engine, dir string, opts Options) (*Writer, error) {
	if opts.MaxDeltas <= 0 {
		opts.MaxDeltas = DefaultMaxDeltas
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The run id makes this incarnation's chunk names disjoint from any
	// previous process's, so a crash before our first manifest rename
	// leaves the old manifest's files untouched and fully valid.
	return &Writer{
		eng:   eng,
		dir:   dir,
		opts:  opts,
		runID: fmt.Sprintf("%08x-%05d", uint32(time.Now().UnixNano()), os.Getpid()%100000),
	}, nil
}

// Checkpoint freezes the engine's changes since the last checkpoint and
// makes them durable: incremental when a cursor exists and the chain is
// short, a full baseline otherwise. Returns without writing when nothing
// changed.
func (w *Writer) Checkpoint(ctx context.Context) (Result, error) {
	return w.checkpoint(ctx, false)
}

// Baseline forces a full checkpoint regardless of cursor state,
// replacing any delta chain. Exported for benchmarks and operators; the
// Writer's own compaction takes this path automatically.
func (w *Writer) Baseline(ctx context.Context) (Result, error) {
	return w.checkpoint(ctx, true)
}

// SetMetrics attaches the telemetry bundle; affects checkpoints taken
// after the call.
func (w *Writer) SetMetrics(m *Metrics) {
	w.mu.Lock()
	w.met = m
	w.mu.Unlock()
}

// Stats returns a copy of the lifetime counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Writer) checkpoint(ctx context.Context, forceFull bool) (Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	compacted := !forceFull && w.cur != nil && len(w.man.Chunks) > w.opts.MaxDeltas
	if forceFull || compacted {
		w.cur = nil
	}
	full := w.cur == nil
	ed, newCur := w.eng.ExportDelta(w.cur)
	if !full && ed.ShardsChanged == 0 && ed.Active == nil {
		// Not a single entity changed: the chain on disk is already
		// current. Packets that changed nothing are left to the replay
		// after a restore, which they change no more than they did here.
		w.cur = &newCur
		res := Result{Skipped: true, ShardsSkipped: ed.ShardsSkipped, Duration: time.Since(start)}
		w.note(res)
		return res, nil
	}
	name := fmt.Sprintf("chunk-%s-%06d.ckpt", w.runID, w.seq)
	w.seq++
	size, sum, err := writeChunkFile(filepath.Join(w.dir, name), ed)
	if err != nil {
		return Result{}, w.fail(fmt.Errorf("checkpoint: write chunk: %w", err))
	}
	man := &Manifest{
		Version: FormatVersion,
		Engine:  w.eng.CheckpointConfig(),
		Written: time.Now().UTC(),
	}
	seq := 0
	if !full {
		man.Chunks = append(man.Chunks, w.man.Chunks...)
		seq = man.Chunks[len(man.Chunks)-1].Seq + 1
	}
	man.Chunks = append(man.Chunks, ChunkInfo{
		File: name, Bytes: size, CRC32: sum, Seq: seq,
		Baseline: full, Services: len(ed.Services),
	})
	if err := writeManifest(w.dir, man); err != nil {
		return Result{}, w.fail(fmt.Errorf("checkpoint: write manifest: %w", err))
	}
	w.man, w.cur = man, &newCur
	w.prune()
	res := Result{
		Full: full, Compacted: compacted,
		Bytes: size, Services: len(ed.Services),
		ShardsChanged: ed.ShardsChanged, ShardsSkipped: ed.ShardsSkipped,
		Duration: time.Since(start),
	}
	w.note(res)
	if m := w.met; m != nil {
		m.Write.Observe(res.Duration)
		kind := "delta"
		switch {
		case compacted:
			kind = "compacted"
		case full:
			kind = "baseline"
		}
		m.Flight.Record(obs.TraceCheckpointCut, kind, res.Bytes, res.Duration.Microseconds())
	}
	return res, nil
}

// fail poisons the cursor: the export consumed the scan tracker's dirty
// set, so the only sound continuation after a failed write is a full
// baseline. Caller holds w.mu.
func (w *Writer) fail(err error) error {
	w.cur = nil
	w.stats.Failures++
	return err
}

// note folds one result into the lifetime counters. Caller holds w.mu.
func (w *Writer) note(res Result) {
	w.stats.Checkpoints++
	if res.Full {
		w.stats.Baselines++
	}
	w.stats.BytesWritten += uint64(res.Bytes)
	w.stats.LastBytes = uint64(res.Bytes)
	w.stats.LastDuration = res.Duration
	w.stats.ChunksSkipped += uint64(res.ShardsSkipped)
}

// prune removes chunk files the current manifest no longer references —
// only now, after the manifest rename made the new chain durable.
// Removal failures are ignored: a leftover file costs disk, never
// correctness. Caller holds w.mu.
func (w *Writer) prune() {
	live := make(map[string]bool, len(w.man.Chunks))
	for i := range w.man.Chunks {
		live[w.man.Chunks[i].File] = true
	}
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "chunk-") && strings.HasSuffix(name, ".ckpt") && !live[name] {
			_ = os.Remove(filepath.Join(w.dir, name))
		}
	}
}

// writeManifest lands the manifest atomically: tmp file, fsync, rename,
// directory fsync. A crash at any point leaves either the old or the new
// manifest, both naming complete chains.
func writeManifest(dir string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, ManifestName, append(data, '\n'))
}

func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
