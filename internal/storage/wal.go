// Physiological write-ahead log for the durable FileDisk.
//
// Every mutation of the store is described by one LSN-stamped record:
// file create/drop, page append, full page image, load begin/commit
// bracket, file truncation, or a metadata key write. Records are
// buffered in memory (group commit) and only reach the log file —
// record by record, each framed with a CRC32C — when Sync is called;
// Sync returns once the file is fsynced, which is the store's
// durability barrier. Recovery
// reads the log sequentially, stops at the first frame whose length or
// checksum does not verify (a torn tail from a crash mid-write), and
// redoes every valid record onto the in-memory page state.
//
// Frame layout (little endian):
//
//	[length uint32][crc32c uint32][body]
//	body = [lsn uint64][type uint8][payload]
//
// length counts the body bytes; the CRC covers the body. Payloads:
//
//	create     file int32
//	drop       file int32
//	append     file int32, pageNo int32
//	image      file int32, pageNo int32, page [PageSize]byte
//	beginLoad  file int32, pagesBefore int32, nameLen uint16, name
//	commitLoad file int32
//	truncate   file int32, pages int32 (in the pageNo field)
//	meta       keyLen uint16, key, valLen uint32, val
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// castagnoli is the CRC32C polynomial table shared by WAL record
// frames and data-page frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecType enumerates WAL record types.
type walRecType uint8

const (
	recCreate walRecType = iota + 1
	recDrop
	recAppend
	recImage
	recBeginLoad
	recCommitLoad
	recMeta
	recTruncate
)

func (t walRecType) String() string {
	switch t {
	case recCreate:
		return "create"
	case recDrop:
		return "drop"
	case recAppend:
		return "append"
	case recImage:
		return "image"
	case recBeginLoad:
		return "begin-load"
	case recCommitLoad:
		return "commit-load"
	case recMeta:
		return "meta"
	case recTruncate:
		return "truncate"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// walRecord is one decoded log record. Unused fields are zero.
type walRecord struct {
	lsn         uint64
	typ         walRecType
	file        FileID
	pageNo      int32 // append, image; truncate: the pages kept
	pagesBefore int32
	name        string // beginLoad: table being loaded (diagnostics)
	key, val    string // meta
	image       []byte // image: PageSize bytes
}

const (
	walFrameHeader = 8 // length + crc
	walBodyHeader  = 9 // lsn + type
	// maxWALBody bounds a frame's body so a corrupted length field
	// cannot make the reader allocate or skip absurd amounts.
	maxWALBody = walBodyHeader + 16 + PageSize + 1<<16
)

// encodeWALRecord appends the framed record to dst.
func encodeWALRecord(dst []byte, r *walRecord) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = binary.LittleEndian.AppendUint64(dst, r.lsn)
	dst = append(dst, byte(r.typ))
	switch r.typ {
	case recCreate, recDrop, recCommitLoad:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.file))
	case recAppend, recTruncate:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.file))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.pageNo))
	case recImage:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.file))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.pageNo))
		dst = append(dst, r.image...)
	case recBeginLoad:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.file))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.pagesBefore))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.name)))
		dst = append(dst, r.name...)
	case recMeta:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.key)))
		dst = append(dst, r.key...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.val)))
		dst = append(dst, r.val...)
	default:
		panic(fmt.Sprintf("storage: encode of unknown WAL record %v", r.typ))
	}
	body := dst[start+walFrameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// decodeWALBody parses one record body (without the frame header). It
// is the fuzz-tested entry point of the decoder.
func decodeWALBody(body []byte) (*walRecord, error) {
	if len(body) < walBodyHeader {
		return nil, fmt.Errorf("storage: wal body too short (%d bytes)", len(body))
	}
	r := &walRecord{
		lsn: binary.LittleEndian.Uint64(body),
		typ: walRecType(body[8]),
	}
	p := body[walBodyHeader:]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("storage: wal %v record truncated (%d of %d payload bytes)", r.typ, len(p), n)
		}
		return nil
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v
	}
	switch r.typ {
	case recCreate, recDrop, recCommitLoad:
		if err := need(4); err != nil {
			return nil, err
		}
		r.file = FileID(u32())
	case recAppend, recTruncate:
		if err := need(8); err != nil {
			return nil, err
		}
		r.file = FileID(u32())
		r.pageNo = int32(u32())
	case recImage:
		if err := need(8 + PageSize); err != nil {
			return nil, err
		}
		r.file = FileID(u32())
		r.pageNo = int32(u32())
		r.image = p[:PageSize]
		p = p[PageSize:]
	case recBeginLoad:
		if err := need(10); err != nil {
			return nil, err
		}
		r.file = FileID(u32())
		r.pagesBefore = int32(u32())
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if err := need(n); err != nil {
			return nil, err
		}
		r.name = string(p[:n])
		p = p[n:]
	case recMeta:
		if err := need(2); err != nil {
			return nil, err
		}
		kn := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if err := need(kn + 4); err != nil {
			return nil, err
		}
		r.key = string(p[:kn])
		p = p[kn:]
		vn := int(u32())
		if err := need(vn); err != nil {
			return nil, err
		}
		r.val = string(p[:vn])
		p = p[vn:]
	default:
		return nil, fmt.Errorf("storage: unknown wal record type %d", body[8])
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("storage: wal %v record has %d trailing bytes", r.typ, len(p))
	}
	return r, nil
}

// readWALRecords decodes the longest valid prefix of a log file's
// bytes. validLen is the byte length of that prefix; torn reports
// whether bytes beyond it exist (a torn tail — the fsync worst case of
// a crash mid-record). Torn tails are expected after a crash and are
// truncated by recovery, never replayed.
func readWALRecords(data []byte) (recs []*walRecord, validLen int, torn bool) {
	off := 0
	for {
		if len(data)-off < walFrameHeader {
			return recs, off, off < len(data)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length < walBodyHeader || length > maxWALBody || len(data)-off-walFrameHeader < length {
			return recs, off, true
		}
		body := data[off+walFrameHeader : off+walFrameHeader+length]
		if crc32.Checksum(body, castagnoli) != sum {
			return recs, off, true
		}
		r, err := decodeWALBody(body)
		if err != nil {
			return recs, off, true
		}
		recs = append(recs, r)
		off += walFrameHeader + length
	}
}

// wal is the log writer: an append-only file plus the group-commit
// buffer of encoded-but-not-yet-durable records. It is not
// goroutine-safe; FileDisk serializes access under its own lock.
type wal struct {
	path    string
	f       *os.File
	nextLSN uint64

	pending [][]byte // encoded frames awaiting Sync

	// durableBytes/durableRecords count what reached the file since
	// the writer (re)opened — i.e. since the last checkpoint swap.
	durableBytes   int64
	durableRecords int64
}

// openWAL opens (creating if needed) the log file for appending.
func openWAL(path string, nextLSN uint64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	return &wal{path: path, f: f, nextLSN: nextLSN}, nil
}

// append stamps the record with the next LSN and buffers it. Nothing
// reaches the file until sync.
func (w *wal) append(r *walRecord) {
	r.lsn = w.nextLSN
	w.nextLSN++
	w.pending = append(w.pending, encodeWALRecord(nil, r))
}

// takePending detaches and returns the group-commit buffer. The
// caller owns the returned frames and writes them with
// FileDisk.writeFrames; group commit uses this to move the write+fsync
// out from under its bookkeeping lock so concurrent committers can
// keep appending while a batch is on its way to disk.
func (w *wal) takePending() [][]byte {
	frames := w.pending
	w.pending = nil
	return frames
}

// close closes the log file; pending records are dropped (they were
// never durable).
func (w *wal) close() error {
	w.pending = nil
	return w.f.Close()
}
