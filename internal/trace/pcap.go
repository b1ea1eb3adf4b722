// Package trace reads and writes packet traces in the classic libpcap
// format, so traffic produced by the campus simulator can be archived,
// replayed through the passive-monitoring pipeline, and inspected with
// standard tools (tcpdump, Wireshark).
//
// Only the features the system needs are implemented: the v2.4 file format,
// microsecond timestamps, both byte orders on read, and the raw-IP and
// Ethernet link types. Writing always uses the host-independent big-endian
// convention with the standard magic.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// LinkType is the pcap link-layer header type.
type LinkType uint32

// Link types the system uses.
const (
	// LinkTypeEthernet frames start with an Ethernet II header.
	LinkTypeEthernet LinkType = 1
	// LinkTypeRaw frames start directly at the IP header (DLT_RAW as
	// written by modern libpcap).
	LinkTypeRaw LinkType = 101
)

const (
	magicMicros        = 0xA1B2C3D4
	magicMicrosSwapped = 0xD4C3B2A1
	versionMajor       = 2
	versionMinor       = 4
	fileHeaderLen      = 24
	recordHeaderLen    = 16
	// DefaultSnapLen mirrors the paper's header-only collection
	// methodology (Section 5.3: "we only collect packet headers,
	// 64B/packet").
	DefaultSnapLen = 64
	// MaxSnapLen is the largest snap length accepted on read, a sanity
	// bound against corrupt headers.
	MaxSnapLen = 256 * 1024
)

// Record is one captured packet: its timestamp, the bytes that were kept,
// and the original length on the wire.
type Record struct {
	Time    time.Time
	Data    []byte
	OrigLen int
	// Truncated reports whether Data was cut to the snap length.
	Truncated bool
}

// Writer emits a pcap stream.
type Writer struct {
	w       *bufio.Writer
	snaplen int
	wrote   bool
	link    LinkType
	scratch [recordHeaderLen]byte
}

// NewWriter creates a pcap writer with the given link type and snap length
// (DefaultSnapLen if snaplen <= 0). The file header is written lazily on
// the first packet so that constructing a writer is infallible.
func NewWriter(w io.Writer, link LinkType, snaplen int) *Writer {
	if snaplen <= 0 {
		snaplen = DefaultSnapLen
	}
	return &Writer{w: bufio.NewWriter(w), snaplen: snaplen, link: link}
}

func (w *Writer) writeFileHeader() error {
	var hdr [fileHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magicMicros)
	binary.BigEndian.PutUint16(hdr[4:6], versionMajor)
	binary.BigEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.BigEndian.PutUint32(hdr[16:20], uint32(w.snaplen))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(w.link))
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one record, truncating data to the snap length.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if !w.wrote {
		if err := w.writeFileHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	capLen := len(data)
	if capLen > w.snaplen {
		capLen = w.snaplen
	}
	usec := ts.UnixMicro()
	binary.BigEndian.PutUint32(w.scratch[0:4], uint32(usec/1e6))
	binary.BigEndian.PutUint32(w.scratch[4:8], uint32(usec%1e6))
	binary.BigEndian.PutUint32(w.scratch[8:12], uint32(capLen))
	binary.BigEndian.PutUint32(w.scratch[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data[:capLen])
	return err
}

// Flush drains buffered output. Call before closing the underlying file.
func (w *Writer) Flush() error {
	if !w.wrote {
		// An empty trace is still a valid pcap file.
		if err := w.writeFileHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

// Reader consumes a pcap stream.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	link    LinkType
	snaplen int
	scratch [recordHeaderLen]byte
}

// Errors returned by Reader.
var (
	ErrBadMagic = errors.New("trace: not a pcap file")
	ErrCorrupt  = errors.New("trace: corrupt record")
)

// NewReader parses the file header and prepares to iterate records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading file header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.BigEndian.Uint32(hdr[0:4]) {
	case magicMicros:
		order = binary.BigEndian
	case magicMicrosSwapped:
		order = binary.LittleEndian
	default:
		return nil, ErrBadMagic
	}
	rd := &Reader{
		r:       br,
		order:   order,
		snaplen: int(order.Uint32(hdr[16:20])),
		link:    LinkType(order.Uint32(hdr[20:24])),
	}
	if rd.snaplen <= 0 || rd.snaplen > MaxSnapLen {
		return nil, fmt.Errorf("%w: snaplen %d", ErrCorrupt, rd.snaplen)
	}
	return rd, nil
}

// LinkType returns the trace's link-layer type.
func (r *Reader) LinkType() LinkType { return r.link }

// Next returns the next record, or io.EOF at a clean end of stream. A
// truncated final record returns ErrCorrupt (wrapped) rather than EOF, so
// failure injection in capture infrastructure is visible to callers.
func (r *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(r.r, r.scratch[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: record header: %v", ErrCorrupt, err)
	}
	sec := r.order.Uint32(r.scratch[0:4])
	usec := r.order.Uint32(r.scratch[4:8])
	capLen := int(r.order.Uint32(r.scratch[8:12]))
	origLen := int(r.order.Uint32(r.scratch[12:16]))
	if capLen < 0 || capLen > r.snaplen || capLen > origLen {
		return Record{}, fmt.Errorf("%w: caplen %d (snaplen %d, origlen %d)", ErrCorrupt, capLen, r.snaplen, origLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("%w: record body: %v", ErrCorrupt, err)
	}
	return Record{
		Time:      time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:      data,
		OrigLen:   origLen,
		Truncated: capLen < origLen,
	}, nil
}

// ReadAll drains the stream into memory. Intended for tests and modest
// simulated traces.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
