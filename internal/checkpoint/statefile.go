package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// stateMagic guards single-value state files (the federated daemon's
// aggregator checkpoint) against misdirected reads.
const stateMagic = "servdisc-checkpoint-state"

type stateHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

type stateEnd struct {
	CRC32 uint32 `json:"crc32"`
}

// WriteStateFile persists one JSON-marshalable value atomically
// (tmp+rename, fsync'd) in the checkpoint framing: header frame, payload
// frame, end frame carrying the payload's CRC. The federated daemon uses
// it for aggregator state; anything state-shaped fits.
func WriteStateFile(path string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode state: %w", err)
	}
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	if err := fw.WriteJSON(stateHeader{Magic: stateMagic, Version: FormatVersion}); err != nil {
		return err
	}
	if err := fw.WriteJSON(json.RawMessage(payload)); err != nil {
		return err
	}
	if err := fw.WriteJSON(stateEnd{CRC32: crc32.ChecksumIEEE(payload)}); err != nil {
		return err
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Dir(path), filepath.Base(path), buf.Bytes())
}

// ReadStateFile loads a value written by WriteStateFile. A missing file
// returns (false, nil) — a cold start; any malformation (bad magic or
// version, CRC mismatch, truncation, trailing bytes) is a loud error and
// v is left unmodified.
func ReadStateFile(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := decodeStateFile(data, v); err != nil {
		return false, err
	}
	return true, nil
}

// decodeStateFile parses state-file bytes into v. Split out (and reached
// by the fuzz harness): hostile inputs must error, never panic, and must
// not touch v.
func decodeStateFile(data []byte, v any) error {
	fr := newFrameReader(bytes.NewReader(data))
	var hdr stateHeader
	if err := fr.ReadJSON(&hdr); err != nil {
		return fmt.Errorf("checkpoint: state header: %w", err)
	}
	if hdr.Magic != stateMagic {
		return errors.New("checkpoint: not a checkpoint state file")
	}
	if hdr.Version != FormatVersion {
		return fmt.Errorf("checkpoint: state version %d, want %d", hdr.Version, FormatVersion)
	}
	body, err := fr.ReadBody()
	if err != nil {
		return fmt.Errorf("checkpoint: state payload: %w", err)
	}
	payload := append([]byte(nil), body...)
	var end stateEnd
	if err := fr.ReadJSON(&end); err != nil {
		return fmt.Errorf("checkpoint: state end frame: %w", err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != end.CRC32 {
		return fmt.Errorf("checkpoint: state checksum %08x, file says %08x", sum, end.CRC32)
	}
	if _, err := fr.ReadBody(); err != io.EOF {
		return errors.New("checkpoint: trailing bytes after state end frame")
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("checkpoint: decode state: %w", err)
	}
	return nil
}
