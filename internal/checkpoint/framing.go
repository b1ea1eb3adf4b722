package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// maxFrameLen bounds a single frame's JSON body; anything beyond it is a
// corrupt file, not a real record.
const maxFrameLen = 1 << 28 // 256 MiB

// frameWriter writes JSON values in the length-prefixed JSONL framing of
// chunk and state files: each value is one line of JSON preceded by its
// decimal byte length ("123 {...}\n"). The prefix lets a reader size and
// skip without parsing; the line framing keeps a checkpoint greppable. It
// buffers — call Flush before trusting the underlying writer has
// everything.
type frameWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriter(w)}
}

// WriteJSON marshals v and writes it as one frame, buffered.
func (fw *frameWriter) WriteJSON(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode frame: %w", err)
	}
	fw.buf = strconv.AppendInt(fw.buf[:0], int64(len(body)), 10)
	fw.buf = append(fw.buf, ' ')
	if _, err := fw.w.Write(fw.buf); err != nil {
		return err
	}
	if _, err := fw.w.Write(body); err != nil {
		return err
	}
	return fw.w.WriteByte('\n')
}

// Flush pushes buffered frames to the underlying writer.
func (fw *frameWriter) Flush() error { return fw.w.Flush() }

// frameReader reads frames written by frameWriter. The body buffer grows
// only as bytes actually arrive, so a corrupt length prefix cannot force a
// quarter-gigabyte allocation for a file that ends two bytes later.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// ReadBody returns the next frame's JSON body. The returned slice aliases
// the reader's internal buffer and is valid only until the next call. It
// returns io.EOF when the stream ends cleanly at a frame boundary and
// io.ErrUnexpectedEOF when it ends inside a frame; any other malformation
// (bad prefix, oversized frame, missing terminator) is a descriptive
// error.
func (fr *frameReader) ReadBody() ([]byte, error) {
	n, err := fr.readLen()
	if err != nil {
		return nil, err
	}
	need := n + 1 // body plus the trailing newline
	buf := fr.buf[:0]
	for len(buf) < need {
		chunk := need - len(buf)
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(fr.r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.buf = buf
	if buf[n] != '\n' {
		return nil, fmt.Errorf("checkpoint: frame missing newline terminator")
	}
	return buf[:n], nil
}

// ReadJSON reads the next frame and unmarshals it into v.
func (fr *frameReader) ReadJSON(v any) error {
	body, err := fr.ReadBody()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("checkpoint: decode frame: %w", err)
	}
	return nil
}

// readLen parses the decimal length prefix up to the separating space.
// io.EOF before the first digit is a clean end of stream.
func (fr *frameReader) readLen() (int, error) {
	n := 0
	for i := 0; ; i++ {
		c, err := fr.r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if c == ' ' {
			if i == 0 {
				return 0, fmt.Errorf("checkpoint: empty frame length prefix")
			}
			return n, nil
		}
		if c < '0' || c > '9' || i >= 10 {
			return 0, fmt.Errorf("checkpoint: malformed frame length prefix")
		}
		n = n*10 + int(c-'0')
		if n > maxFrameLen {
			return 0, fmt.Errorf("checkpoint: frame length %d exceeds limit %d", n, maxFrameLen)
		}
	}
}
