package checkpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"servdisc/internal/core"
	"servdisc/internal/federate"
)

// seedCheckpointDir builds one real two-chunk checkpoint and returns the
// manifest bytes and each chunk's bytes, the honest corpus the fuzzers
// mutate from.
func seedCheckpointDir(f *testing.F) (manifest []byte, chunks [][]byte) {
	f.Helper()
	dir, err := os.MkdirTemp("", "ckpt-fuzz-seed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	eng := core.NewHybrid(testCampus, testUDP, 2, testTCP)
	w, err := NewWriter(eng, dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	trace := testTrace(11, 700)
	feed(eng, trace[:400])
	if _, err := w.Checkpoint(context.Background()); err != nil {
		f.Fatal(err)
	}
	feed(eng, trace[400:])
	if _, err := w.Checkpoint(context.Background()); err != nil {
		f.Fatal(err)
	}
	manifest, err = os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	man, err := DecodeManifest(manifest)
	if err != nil {
		f.Fatal(err)
	}
	for _, ci := range man.Chunks {
		data, err := os.ReadFile(filepath.Join(dir, ci.File))
		if err != nil {
			f.Fatal(err)
		}
		chunks = append(chunks, data)
	}
	return manifest, chunks
}

// FuzzChunkDecode feeds arbitrary bytes to the chunk decoder: truncated,
// bit-flipped or outright hostile chunks must produce an error, never a
// panic or a partially-believed delta (mirrors the federation wire's
// FuzzDecoderNoPanic). Accepted inputs must satisfy the decoder's own
// count invariants — that is what restore's "never half-load" rests on.
func FuzzChunkDecode(f *testing.F) {
	_, chunks := seedCheckpointDir(f)
	for _, c := range chunks {
		f.Add(c)
		f.Add(c[:len(c)/2])
		flip := append([]byte(nil), c...)
		flip[len(flip)/3] ^= 0x80
		f.Add(flip)
	}
	f.Add([]byte("12 hello\n"))
	f.Add([]byte("999999999999999999 {}\n"))
	f.Add([]byte(`34 {"t":"hdr","hdr":{"magic":"nope"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ed, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if ed == nil {
			t.Fatal("nil delta without error")
		}
	})
}

// FuzzManifestDecode: hostile manifest bytes must error or yield a
// manifest that passes every structural invariant (safe chunk filenames
// above all — a manifest must never be able to point restore outside its
// own directory).
func FuzzManifestDecode(f *testing.F) {
	manifest, _ := seedCheckpointDir(f)
	f.Add(manifest)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"publisher":{"epoch":7,"seq":41},"chunks":[]}`)) // an older writer's field
	f.Add([]byte(`{"version":1,"chunks":[{"file":"../../etc/passwd","bytes":1,"seq":0,"baseline":true}]}`))
	f.Add([]byte(`{"version":1,"chunks":[{"file":"x.ckpt","bytes":-5,"seq":0,"baseline":true}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := DecodeManifest(data)
		if err != nil {
			return
		}
		for _, ci := range man.Chunks {
			if ci.File != filepath.Base(ci.File) || ci.Bytes < 0 {
				t.Fatalf("accepted manifest with unsafe chunk %+v", ci)
			}
		}
	})
}

// FuzzStateFileDecode: hostile aggregator-state bytes must error without
// panicking; accepted payloads must round-trip through ImportState.
func FuzzStateFileDecode(f *testing.F) {
	agg := federate.NewAggregator()
	var buf bytes.Buffer
	payload, _ := json.Marshal(agg.ExportState())
	buf.Write(payload)
	path := filepath.Join(f.TempDir(), "seed.state")
	if err := WriteStateFile(path, agg.ExportState()); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte("26 {\"magic\":\"wrong\",\"version\":1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st federate.AggregatorState
		if err := decodeStateFile(data, &st); err != nil {
			return
		}
		fresh := federate.NewAggregator()
		if err := fresh.ImportState(&st); err != nil {
			t.Fatalf("decoded state rejected by import: %v", err)
		}
	})
}
