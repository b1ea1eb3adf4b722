package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"servdisc/internal/core"
)

// Restore rebuilds a fresh engine from the checkpoint directory. It
// returns (nil, nil) when the directory holds no manifest — a cold
// start, not an error. Every chunk in the chain is read and fully
// verified (manifest-recorded size, CRC, frame structure, entity
// counts) BEFORE the first delta is imported, so a corrupt or truncated
// checkpoint fails loudly with the engine untouched — it can never
// half-load. On success the returned manifest carries the restored
// chain.
//
// The target engine must match the checkpoint's campus, UDP port set
// and hybrid-ness; its shard count may differ (import redistributes by
// owner address).
func Restore(dir string, eng Engine) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	cfg := eng.CheckpointConfig()
	if man.Engine.Campus != cfg.Campus {
		return nil, fmt.Errorf("checkpoint: campus mismatch: checkpoint %q, engine %q",
			man.Engine.Campus, cfg.Campus)
	}
	if !slices.Equal(man.Engine.UDPPorts, cfg.UDPPorts) {
		return nil, fmt.Errorf("checkpoint: UDP port set mismatch: checkpoint %v, engine %v",
			man.Engine.UDPPorts, cfg.UDPPorts)
	}
	if man.Engine.Hybrid != cfg.Hybrid {
		return nil, fmt.Errorf("checkpoint: hybrid mismatch: checkpoint %v, engine %v",
			man.Engine.Hybrid, cfg.Hybrid)
	}
	deltas := make([]*core.EngineDelta, 0, len(man.Chunks))
	for i := range man.Chunks {
		ci := &man.Chunks[i]
		raw, err := os.ReadFile(filepath.Join(dir, ci.File))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: chunk %q: %w", ci.File, err)
		}
		if int64(len(raw)) != ci.Bytes {
			return nil, fmt.Errorf("checkpoint: chunk %q is %d bytes, manifest says %d",
				ci.File, len(raw), ci.Bytes)
		}
		if sum := crc32.ChecksumIEEE(raw); sum != ci.CRC32 {
			return nil, fmt.Errorf("checkpoint: chunk %q checksum %08x, manifest says %08x",
				ci.File, sum, ci.CRC32)
		}
		ed, err := DecodeChunk(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: chunk %q: %w", ci.File, err)
		}
		if (i == 0) != ed.Full {
			return nil, fmt.Errorf("checkpoint: chunk %q baseline flag disagrees with chain position", ci.File)
		}
		deltas = append(deltas, ed)
	}
	for i, ed := range deltas {
		if err := eng.ImportDelta(ed); err != nil {
			return nil, fmt.Errorf("checkpoint: import chunk %q: %w", man.Chunks[i].File, err)
		}
	}
	return man, nil
}
