// Package checkpoint gives the live discovery engine durable state: a
// Writer periodically freezes a consistent cut of the engine (via the
// core export markers, so every checkpoint falls on a whole-batch
// boundary of the ingest stream) and persists it as a baseline chunk
// plus a chain of incremental delta chunks, each holding only the
// entities touched since the previous checkpoint — O(churn), not
// O(inventory). Restore verifies every chunk (size, CRC, frame counts)
// before importing anything, so a corrupt checkpoint fails loudly and
// can never half-load an engine.
//
// On-disk layout, one directory per engine:
//
//	manifest.json            atomic (tmp+rename) index: engine config
//	                         fingerprint, chunk chain
//	chunk-<run>-<n>.ckpt     length-prefixed JSONL frames (framing.go):
//	                         hdr, entity frames, end
//
// Chunk files are named uniquely per Writer incarnation, so a crashed
// writer can never overwrite a file the last durable manifest still
// references; files no longer referenced are pruned only after the new
// manifest is safely on disk. A failed checkpoint poisons the writer's
// cursor, forcing the next checkpoint to be a full baseline (the export
// consumed the scan tracker's dirty set, which cannot be recovered).
package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"servdisc/internal/core"
)

// FormatVersion is the checkpoint format version, stamped into the
// manifest and every chunk header. Readers reject other versions.
const FormatVersion = 1

// ManifestName is the manifest's filename inside a checkpoint directory.
const ManifestName = "manifest.json"

// chunkMagic guards chunk files against misdirected reads (a manifest
// pointing at a file that is not a checkpoint chunk).
const chunkMagic = "servdisc-checkpoint-chunk"

// Engine is the slice of a discovery engine the checkpoint subsystem
// needs. core.ShardedPassive, hybrid (core.NewHybrid) or not, satisfies it.
type Engine interface {
	ExportDelta(cur *core.CheckpointCursor) (*core.EngineDelta, core.CheckpointCursor)
	ImportDelta(ed *core.EngineDelta) error
	CheckpointConfig() core.EngineConfig
}

// ChunkInfo describes one chunk in the manifest's chain.
type ChunkInfo struct {
	// File is the chunk's filename (always a bare name inside the
	// checkpoint directory).
	File string `json:"file"`
	// Bytes and CRC32 (IEEE) authenticate the file's content; restore
	// verifies both before decoding a single frame.
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
	// Seq orders the chain; chunks import in ascending Seq.
	Seq int `json:"seq"`
	// Baseline marks a full export (always the chain's first chunk).
	Baseline bool `json:"baseline,omitempty"`
	// Services counts the service records carried, for observability.
	Services int `json:"services,omitempty"`
}

// Manifest is the checkpoint directory's index: which chunks make up the
// current chain and which engine shape they reproduce. It is replaced
// atomically on every checkpoint; the manifest on disk always describes
// a complete, verifiable chain. Decoding ignores unknown fields on
// purpose: manifests written before a field was dropped (the "cursor" and
// the federation "publisher" cursor of older writers) still restore.
type Manifest struct {
	Version int               `json:"version"`
	Engine  core.EngineConfig `json:"engine"`
	// Written is the wall-clock time of the last checkpoint, for
	// operators; nothing is derived from it.
	Written time.Time   `json:"written,omitzero"`
	Chunks  []ChunkInfo `json:"chunks"`
}

// chunkHeader is a chunk file's first frame.
type chunkHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// The delta-level fields of core.EngineDelta.
	Full          bool      `json:"full,omitempty"`
	Packets       int       `json:"packets"`
	Origin        time.Time `json:"origin,omitzero"`
	OriginSet     bool      `json:"origin_set,omitempty"`
	Watermark     time.Time `json:"watermark,omitzero"`
	ShardsChanged int       `json:"shards_changed,omitempty"`
	ShardsSkipped int       `json:"shards_skipped,omitempty"`
}

// chunkEnd is a chunk file's last frame: the entity counts the decoder
// must have seen. A truncated file cannot end with a valid end frame, so
// truncation is always loud.
type chunkEnd struct {
	Services    int  `json:"services"`
	Trails      int  `json:"trails"`
	Tombs       int  `json:"tombs,omitempty"`
	ScanSources int  `json:"scan_sources"`
	Active      bool `json:"active,omitempty"`
}

// Chunk frame discriminators.
const (
	frameHdr    = "hdr"
	frameSvc    = "svc"
	frameTrail  = "trail"
	frameTomb   = "tomb"
	frameScan   = "scan"
	frameActive = "active"
	frameEnd    = "end"
)

// chunkFrame is the one-of envelope for chunk frames.
type chunkFrame struct {
	T      string                `json:"t"`
	Hdr    *chunkHeader          `json:"hdr,omitempty"`
	Svc    *core.ServiceState    `json:"svc,omitempty"`
	Trail  *core.AddrTrail       `json:"trail,omitempty"`
	Tomb   *core.TombState       `json:"tomb,omitempty"`
	Scan   *core.ScanSourceState `json:"scan,omitempty"`
	Active *core.ActiveState     `json:"active,omitempty"`
	End    *chunkEnd             `json:"end,omitempty"`
}

// validManifest checks the structural invariants a decoded manifest must
// satisfy before any file it names is opened.
func validManifest(m *Manifest) error {
	if m.Version != FormatVersion {
		return fmt.Errorf("checkpoint: manifest version %d, want %d", m.Version, FormatVersion)
	}
	if len(m.Chunks) == 0 {
		return errors.New("checkpoint: manifest without chunks")
	}
	for i := range m.Chunks {
		ci := &m.Chunks[i]
		if ci.File == "" || ci.File != filepath.Base(ci.File) ||
			strings.HasPrefix(ci.File, ".") || !strings.HasSuffix(ci.File, ".ckpt") {
			return fmt.Errorf("checkpoint: manifest names unsafe chunk file %q", ci.File)
		}
		if ci.Bytes < 0 {
			return fmt.Errorf("checkpoint: chunk %q has negative size", ci.File)
		}
		if i == 0 {
			if !ci.Baseline {
				return errors.New("checkpoint: chain does not start with a baseline")
			}
			continue
		}
		if ci.Baseline {
			return fmt.Errorf("checkpoint: baseline chunk %q in the middle of the chain", ci.File)
		}
		if ci.Seq <= m.Chunks[i-1].Seq {
			return fmt.Errorf("checkpoint: chunk sequence not increasing at %q", ci.File)
		}
	}
	return nil
}
