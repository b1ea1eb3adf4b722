package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"servdisc/internal/core"
)

// meter tees writes through a CRC and a byte counter.
type meter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32
}

func (m *meter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n += int64(n)
	m.crc.Write(p[:n])
	return n, err
}

// writeChunkFile streams one delta into a chunk file and syncs it. The
// file is not referenced until the caller lands a manifest naming it, so
// a partial write is garbage to be pruned, never corruption.
func writeChunkFile(path string, ed *core.EngineDelta) (size int64, sum uint32, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	m := &meter{w: f, crc: crc32.NewIEEE()}
	fw := newFrameWriter(m)
	hdr := chunkHeader{
		Magic: chunkMagic, Version: FormatVersion,
		Full: ed.Full, Packets: ed.Packets,
		Origin: ed.Origin, OriginSet: ed.OriginSet,
		Watermark:     ed.Watermark,
		ShardsChanged: ed.ShardsChanged, ShardsSkipped: ed.ShardsSkipped,
	}
	if err := fw.WriteJSON(&chunkFrame{T: frameHdr, Hdr: &hdr}); err != nil {
		return 0, 0, err
	}
	for i := range ed.Services {
		if err := fw.WriteJSON(&chunkFrame{T: frameSvc, Svc: &ed.Services[i]}); err != nil {
			return 0, 0, err
		}
	}
	for i := range ed.Trails {
		if err := fw.WriteJSON(&chunkFrame{T: frameTrail, Trail: &ed.Trails[i]}); err != nil {
			return 0, 0, err
		}
	}
	for i := range ed.Tombs {
		if err := fw.WriteJSON(&chunkFrame{T: frameTomb, Tomb: &ed.Tombs[i]}); err != nil {
			return 0, 0, err
		}
	}
	for i := range ed.ScanSources {
		if err := fw.WriteJSON(&chunkFrame{T: frameScan, Scan: &ed.ScanSources[i]}); err != nil {
			return 0, 0, err
		}
	}
	if ed.Active != nil {
		if err := fw.WriteJSON(&chunkFrame{T: frameActive, Active: ed.Active}); err != nil {
			return 0, 0, err
		}
	}
	end := chunkEnd{
		Services: len(ed.Services), Trails: len(ed.Trails), Tombs: len(ed.Tombs),
		ScanSources: len(ed.ScanSources), Active: ed.Active != nil,
	}
	if err := fw.WriteJSON(&chunkFrame{T: frameEnd, End: &end}); err != nil {
		return 0, 0, err
	}
	if err := fw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, 0, err
	}
	return m.n, m.crc.Sum32(), nil
}

// DecodeChunk parses one chunk file's bytes back into a delta. It is
// deliberately strict — wrong magic, unknown frames, missing or
// miscounting end frame, trailing bytes: all errors — because restore
// must fail loudly on anything but a byte-perfect chunk. Exported for
// the fuzz harness; hostile inputs must error, never panic.
func DecodeChunk(data []byte) (*core.EngineDelta, error) {
	fr := newFrameReader(bytes.NewReader(data))
	var f chunkFrame
	if err := fr.ReadJSON(&f); err != nil {
		return nil, fmt.Errorf("checkpoint: chunk header: %w", err)
	}
	if f.T != frameHdr || f.Hdr == nil {
		return nil, errors.New("checkpoint: chunk does not start with a header frame")
	}
	if f.Hdr.Magic != chunkMagic {
		return nil, errors.New("checkpoint: not a checkpoint chunk")
	}
	if f.Hdr.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: chunk version %d, want %d", f.Hdr.Version, FormatVersion)
	}
	ed := &core.EngineDelta{
		Full: f.Hdr.Full, Packets: f.Hdr.Packets,
		Origin: f.Hdr.Origin, OriginSet: f.Hdr.OriginSet,
		Watermark:     f.Hdr.Watermark,
		ShardsChanged: f.Hdr.ShardsChanged, ShardsSkipped: f.Hdr.ShardsSkipped,
	}
	var end *chunkEnd
	for end == nil {
		f = chunkFrame{}
		if err := fr.ReadJSON(&f); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, errors.New("checkpoint: chunk truncated before end frame")
			}
			return nil, err
		}
		switch f.T {
		case frameSvc:
			if f.Svc == nil {
				return nil, errors.New("checkpoint: service frame without payload")
			}
			ed.Services = append(ed.Services, *f.Svc)
		case frameTrail:
			if f.Trail == nil {
				return nil, errors.New("checkpoint: trail frame without payload")
			}
			ed.Trails = append(ed.Trails, *f.Trail)
		case frameTomb:
			if f.Tomb == nil {
				return nil, errors.New("checkpoint: tomb frame without payload")
			}
			ed.Tombs = append(ed.Tombs, *f.Tomb)
		case frameScan:
			if f.Scan == nil {
				return nil, errors.New("checkpoint: scan-source frame without payload")
			}
			ed.ScanSources = append(ed.ScanSources, *f.Scan)
		case frameActive:
			if f.Active == nil {
				return nil, errors.New("checkpoint: active frame without payload")
			}
			if ed.Active != nil {
				return nil, errors.New("checkpoint: duplicate active frame")
			}
			ed.Active = f.Active
		case frameEnd:
			if f.End == nil {
				return nil, errors.New("checkpoint: end frame without payload")
			}
			end = f.End
		default:
			return nil, fmt.Errorf("checkpoint: unknown chunk frame type %q", f.T)
		}
	}
	if end.Services != len(ed.Services) || end.Trails != len(ed.Trails) ||
		end.Tombs != len(ed.Tombs) ||
		end.ScanSources != len(ed.ScanSources) || end.Active != (ed.Active != nil) {
		return nil, errors.New("checkpoint: chunk entity counts disagree with end frame")
	}
	if _, err := fr.ReadBody(); err != io.EOF {
		return nil, errors.New("checkpoint: trailing bytes after end frame")
	}
	return ed, nil
}

// DecodeManifest parses and validates manifest bytes. Exported for the
// fuzz harness; hostile inputs must error, never panic.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if err := validManifest(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
