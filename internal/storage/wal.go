package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The write-ahead log makes index mutations durable before they touch
// tree pages. It is a separate append-only file next to the page file
// (<pagefile>.wal) with a fixed header followed by length-prefixed,
// CRC32-C-checksummed records:
//
//	header:  magic "ANNW" uint32 | version uint16 | flags uint16 |
//	         reserved uint64                        (16 bytes)
//	record:  payloadLen uint32 | crc32c(payload) uint32 | payload
//
// Record payloads are typed by their first byte:
//
//	walKindInsert:  kind | id uint64 | dim uint16 | dim × float64
//	walKindDelete:  same layout as insert
//	walKindMeta:    kind | metaPageID uint32 | PageSize payload bytes
//
// The commit rule is the classic one: the longest prefix of records with
// valid lengths and checksums is committed; the first invalid or
// truncated record marks the torn tail, which recovery truncates. A
// walKindMeta record is a full copy of the tree's meta page captured at
// a checkpoint: recovery restores the LAST valid one to the page file
// and replays only the op records after it, which makes every crash
// point — before the snapshot, between the snapshot and the meta page
// write, or during the log reset — land on a consistent tree without
// log sequence numbers in the page file (see ann.OpenIndex and
// DESIGN.md §15).
//
// Appends are group-committed: Append* buffers records in memory and
// Sync persists the whole batch with one write and one fsync.
const (
	walMagic      = 0x414E4E57 // "WNNA" little-endian; reads as "ANNW" on disk
	walVersion    = 1
	walHeaderSize = 16

	walRecHeader = 8 // payloadLen u32 | crc u32

	// walMaxRecord bounds one record's payload, protecting replay (and
	// the fuzzer's allocations) against hostile lengths. The largest
	// legitimate record is a meta snapshot: 1 + 4 + PageSize bytes.
	walMaxRecord = 16 << 10

	// walMaxDim bounds the dimensionality an op record may claim.
	walMaxDim = 1024
)

// WAL record payload kinds.
const (
	walKindInsert byte = 1
	walKindDelete byte = 2
	walKindMeta   byte = 3
)

// WALRecord is one decoded log record. Kind selects which fields are
// meaningful: ID and Point for inserts and deletes, PageID and Page for
// meta snapshots.
type WALRecord struct {
	Kind   byte
	ID     uint64
	Point  []float64
	PageID PageID
	Page   []byte
}

// AppendWALInsert appends the encoded payload of an insert record to buf.
func AppendWALInsert(buf []byte, id uint64, pt []float64) []byte {
	return appendWALOp(buf, walKindInsert, id, pt)
}

// AppendWALDelete appends the encoded payload of a delete record to buf.
func AppendWALDelete(buf []byte, id uint64, pt []float64) []byte {
	return appendWALOp(buf, walKindDelete, id, pt)
}

func appendWALOp(buf []byte, kind byte, id uint64, pt []float64) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(pt)))
	for _, v := range pt {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// AppendWALMeta appends the encoded payload of a meta-snapshot record
// (a full copy of the tree's meta page) to buf.
func AppendWALMeta(buf []byte, pid PageID, page []byte) []byte {
	buf = append(buf, walKindMeta)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pid))
	return append(buf, page[:PageSize]...)
}

// DecodeWALRecord decodes one record payload, validating it completely:
// exact length, sane dimensionality, full meta page. Malformed payloads
// return an error wrapping ErrCorruptPage and never panic — this is the
// boundary the WAL fuzzer hammers.
func DecodeWALRecord(payload []byte) (WALRecord, error) {
	if len(payload) == 0 {
		return WALRecord{}, fmt.Errorf("storage: empty WAL record: %w", ErrCorruptPage)
	}
	switch kind := payload[0]; kind {
	case walKindInsert, walKindDelete:
		if len(payload) < 1+8+2 {
			return WALRecord{}, fmt.Errorf("storage: WAL op record of %d bytes: %w", len(payload), ErrCorruptPage)
		}
		id := binary.LittleEndian.Uint64(payload[1:])
		dim := int(binary.LittleEndian.Uint16(payload[9:]))
		if dim == 0 || dim > walMaxDim {
			return WALRecord{}, fmt.Errorf("storage: WAL op record claims dim %d: %w", dim, ErrCorruptPage)
		}
		if len(payload) != 1+8+2+8*dim {
			return WALRecord{}, fmt.Errorf("storage: WAL op record of %d bytes for dim %d: %w",
				len(payload), dim, ErrCorruptPage)
		}
		pt := make([]float64, dim)
		for d := range pt {
			pt[d] = math.Float64frombits(binary.LittleEndian.Uint64(payload[11+8*d:]))
		}
		return WALRecord{Kind: kind, ID: id, Point: pt}, nil
	case walKindMeta:
		if len(payload) != 1+4+PageSize {
			return WALRecord{}, fmt.Errorf("storage: WAL meta record of %d bytes: %w", len(payload), ErrCorruptPage)
		}
		pid := PageID(binary.LittleEndian.Uint32(payload[1:]))
		page := make([]byte, PageSize)
		copy(page, payload[5:])
		return WALRecord{Kind: walKindMeta, PageID: pid, Page: page}, nil
	default:
		return WALRecord{}, fmt.Errorf("storage: unknown WAL record kind %d: %w", kind, ErrCorruptPage)
	}
}

// IsWALInsert reports whether r is an insert op.
func (r *WALRecord) IsWALInsert() bool { return r.Kind == walKindInsert }

// IsWALDelete reports whether r is a delete op.
func (r *WALRecord) IsWALDelete() bool { return r.Kind == walKindDelete }

// IsWALMeta reports whether r is a meta snapshot.
func (r *WALRecord) IsWALMeta() bool { return r.Kind == walKindMeta }

// --- backend ----------------------------------------------------------------

// WALBackend is the file surface the WAL runs on. *os.File satisfies it
// via OSWALFile; MemWALFile keeps everything in memory for tests and
// fuzzing; FaultWALFile injects torn writes and failed syncs for the
// crash-recovery suite.
type WALBackend interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// OSWALFile adapts an *os.File to WALBackend.
type OSWALFile struct{ F *os.File }

func (f OSWALFile) ReadAt(p []byte, off int64) (int, error)  { return f.F.ReadAt(p, off) }
func (f OSWALFile) WriteAt(p []byte, off int64) (int, error) { return f.F.WriteAt(p, off) }
func (f OSWALFile) Truncate(size int64) error                { return f.F.Truncate(size) }
func (f OSWALFile) Sync() error                              { return f.F.Sync() }
func (f OSWALFile) Close() error                             { return f.F.Close() }
func (f OSWALFile) Size() (int64, error) {
	info, err := f.F.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// MemWALFile is an in-memory WALBackend.
type MemWALFile struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemWALFile returns an empty in-memory WAL backend.
func NewMemWALFile() *MemWALFile { return &MemWALFile{} }

func (f *MemWALFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *MemWALFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.buf)) {
		f.buf = append(f.buf, make([]byte, need-int64(len(f.buf)))...)
	}
	return copy(f.buf[off:], p), nil
}

func (f *MemWALFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else {
		f.buf = append(f.buf, make([]byte, size-int64(len(f.buf)))...)
	}
	return nil
}

func (f *MemWALFile) Sync() error  { return nil }
func (f *MemWALFile) Close() error { return nil }
func (f *MemWALFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.buf)), nil
}

// Bytes returns a copy of the backing buffer (for test assertions).
func (f *MemWALFile) Bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, len(f.buf))
	copy(out, f.buf)
	return out
}

// WALFaultConfig selects the faults a FaultWALFile injects. The zero
// value injects nothing. The countdowns follow FaultConfig's convention:
// n=1 fails the next matching operation, larger n fails the n-th.
type WALFaultConfig struct {
	// FailWritesAfter makes the n-th WriteAt — and every later one —
	// fail without writing anything.
	FailWritesAfter int
	// TornWriteAfter makes the n-th WriteAt persist only TornKeepBytes
	// bytes of its buffer and then report failure, simulating a crash
	// mid-append.
	TornWriteAfter int
	// TornKeepBytes is how much of the torn write survives.
	TornKeepBytes int
	// FailSyncsAfter makes the n-th Sync — and every later one — fail.
	FailSyncsAfter int
}

// FaultWALFile wraps a WALBackend with deterministic write/sync faults
// for the crash-recovery loop.
type FaultWALFile struct {
	inner WALBackend

	mu  sync.Mutex
	cfg WALFaultConfig
}

// NewFaultWALFile wraps inner with fault injection per cfg.
func NewFaultWALFile(inner WALBackend, cfg WALFaultConfig) *FaultWALFile {
	return &FaultWALFile{inner: inner, cfg: cfg}
}

// SetConfig replaces the fault configuration.
func (f *FaultWALFile) SetConfig(cfg WALFaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
}

func (f *FaultWALFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *FaultWALFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	fail, torn, keep := false, false, 0
	if f.cfg.FailWritesAfter > 0 {
		if f.cfg.FailWritesAfter == 1 {
			fail = true
		}
		f.cfg.FailWritesAfter--
	}
	if f.cfg.TornWriteAfter > 0 {
		if f.cfg.TornWriteAfter == 1 {
			torn, keep = true, f.cfg.TornKeepBytes
		}
		f.cfg.TornWriteAfter--
	}
	f.mu.Unlock()
	if torn {
		if keep > len(p) {
			keep = len(p)
		}
		if keep > 0 {
			f.inner.WriteAt(p[:keep], off)
		}
		return keep, fmt.Errorf("storage: injected torn WAL write (%d of %d bytes): %w", keep, len(p), ErrWriteFailed)
	}
	if fail {
		return 0, fmt.Errorf("storage: injected WAL write fault: %w", ErrWriteFailed)
	}
	return f.inner.WriteAt(p, off)
}

func (f *FaultWALFile) Truncate(size int64) error { return f.inner.Truncate(size) }

func (f *FaultWALFile) Sync() error {
	f.mu.Lock()
	fail := false
	if f.cfg.FailSyncsAfter > 0 {
		if f.cfg.FailSyncsAfter == 1 {
			fail = true
		}
		f.cfg.FailSyncsAfter--
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("storage: injected WAL sync fault: %w", ErrWriteFailed)
	}
	return f.inner.Sync()
}

func (f *FaultWALFile) Close() error         { return f.inner.Close() }
func (f *FaultWALFile) Size() (int64, error) { return f.inner.Size() }

// --- WAL --------------------------------------------------------------------

// WAL is a write-ahead log over a WALBackend. Append* buffers records;
// Sync persists the pending batch with one write and one fsync (group
// commit). After any failed write or sync the WAL is broken: the
// durable state of the file is unknown, so every later operation fails
// until the index is reopened and recovered.
//
// The WAL itself is not locked — the single index writer serialises
// access, matching the trees it protects.
type WAL struct {
	f    WALBackend
	size int64 // end offset of the durable region
	pend []byte
	// pendRecords counts the records in pend, moved to the records
	// counter when the batch commits.
	pendRecords uint64
	broken      error

	records     atomic.Uint64
	fsyncs      atomic.Uint64
	checkpoints atomic.Uint64
	replayed    atomic.Uint64
	replayNs    atomic.Int64
}

// CreateWAL creates (truncating) a fresh log at path.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create WAL: %w", err)
	}
	w := &WAL{f: OSWALFile{F: f}}
	if err := w.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWAL opens the log at path, creating it fresh if absent. The
// returned WAL still holds whatever committed records the file carries;
// the caller runs Recover to read them (and detect an unclean
// shutdown) before appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open WAL: %w", err)
	}
	w, err := NewWALOn(OSWALFile{F: f})
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// NewWALOn opens a WAL over an arbitrary backend (tests inject
// MemWALFile and FaultWALFile here). An empty or header-torn backend is
// initialised fresh; a backend with a valid header keeps its records
// for Recover.
func NewWALOn(f WALBackend) (*WAL, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: stat WAL: %w", err)
	}
	w := &WAL{f: f, size: size}
	if size < walHeaderSize {
		// Empty, or torn during initial creation — either way there are
		// no records yet; start fresh.
		if err := w.writeHeader(); err != nil {
			return nil, err
		}
		return w, nil
	}
	var hdr [walHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: read WAL header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != walMagic {
		return nil, fmt.Errorf("storage: bad WAL magic %#08x: %w", got, ErrCorruptPage)
	}
	if got := binary.LittleEndian.Uint16(hdr[4:]); got != walVersion {
		return nil, fmt.Errorf("storage: unsupported WAL version %d: %w", got, ErrCorruptPage)
	}
	return w, nil
}

func (w *WAL) writeHeader() error {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint16(hdr[4:], walVersion)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: init WAL: %v: %w", err, ErrWriteFailed)
	}
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: init WAL: %v: %w", err, ErrWriteFailed)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: init WAL: %v: %w", err, ErrWriteFailed)
	}
	w.size = walHeaderSize
	return nil
}

// AppendInsert buffers an insert record.
func (w *WAL) AppendInsert(id uint64, pt []float64) error {
	return w.appendPayload(AppendWALInsert(nil, id, pt))
}

// AppendDelete buffers a delete record.
func (w *WAL) AppendDelete(id uint64, pt []float64) error {
	return w.appendPayload(AppendWALDelete(nil, id, pt))
}

// AppendMeta buffers a meta-snapshot record.
func (w *WAL) AppendMeta(pid PageID, page []byte) error {
	return w.appendPayload(AppendWALMeta(nil, pid, page))
}

func (w *WAL) appendPayload(payload []byte) error {
	if w.broken != nil {
		return w.broken
	}
	if len(payload) > walMaxRecord {
		return fmt.Errorf("storage: WAL record of %d bytes exceeds limit %d: %w",
			len(payload), walMaxRecord, ErrWriteFailed)
	}
	w.pend = binary.LittleEndian.AppendUint32(w.pend, uint32(len(payload)))
	w.pend = binary.LittleEndian.AppendUint32(w.pend, crc32.Checksum(payload, castagnoli))
	w.pend = append(w.pend, payload...)
	w.pendRecords++
	return nil
}

// Sync group-commits the pending batch: one write at the current end of
// the log, one fsync. On failure the WAL is broken (the batch may be
// torn on disk; recovery will truncate it) and the error, wrapping
// ErrWriteFailed, is sticky.
func (w *WAL) Sync() error {
	if w.broken != nil {
		return w.broken
	}
	if len(w.pend) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.pend, w.size); err != nil {
		w.broken = fmt.Errorf("storage: WAL append: %v: %w", err, ErrWriteFailed)
		return w.broken
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("storage: WAL fsync: %v: %w", err, ErrWriteFailed)
		return w.broken
	}
	w.size += int64(len(w.pend))
	w.pend = w.pend[:0]
	w.records.Add(w.pendRecords)
	w.pendRecords = 0
	w.fsyncs.Add(1)
	return nil
}

// Recover scans the committed prefix of the log and truncates the torn
// tail. It returns the last valid meta snapshot (nil if none) and the
// op records that follow it — exactly what OpenIndex must replay on top
// of the snapshot's tree. An empty result (nil, nil) means the index
// was closed cleanly.
func (w *WAL) Recover() (snap *WALRecord, ops []WALRecord, err error) {
	start := time.Now()
	off := int64(walHeaderSize)
	var hdr [walRecHeader]byte
	var ok int64 = walHeaderSize
	for {
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			break // torn or clean end of log
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		want := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > walMaxRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := w.f.ReadAt(payload, off+walRecHeader); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != want {
			break
		}
		rec, derr := DecodeWALRecord(payload)
		if derr != nil {
			break
		}
		if rec.IsWALMeta() {
			r := rec
			snap, ops = &r, ops[:0]
		} else {
			ops = append(ops, rec)
		}
		off += walRecHeader + n
		ok = off
	}
	// Drop the torn tail so later appends land on a clean end.
	if cur, serr := w.f.Size(); serr == nil && cur > ok {
		if err := w.f.Truncate(ok); err != nil {
			return nil, nil, fmt.Errorf("storage: truncate torn WAL tail: %v: %w", err, ErrWriteFailed)
		}
		if err := w.f.Sync(); err != nil {
			return nil, nil, fmt.Errorf("storage: truncate torn WAL tail: %v: %w", err, ErrWriteFailed)
		}
	}
	w.size = ok
	w.replayed.Add(uint64(len(ops)))
	if snap != nil {
		w.replayed.Add(1)
	}
	w.replayNs.Add(time.Since(start).Nanoseconds())
	return snap, ops, nil
}

// Reset truncates the log back to a bare header after a checkpoint: the
// checkpointed page file now owns everything the log described.
func (w *WAL) Reset() error {
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(walHeaderSize); err != nil {
		w.broken = fmt.Errorf("storage: reset WAL: %v: %w", err, ErrWriteFailed)
		return w.broken
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("storage: reset WAL: %v: %w", err, ErrWriteFailed)
		return w.broken
	}
	w.size = walHeaderSize
	w.pend = w.pend[:0]
	w.pendRecords = 0
	w.checkpoints.Add(1)
	return nil
}

// Empty reports whether the durable log holds no records — true after a
// clean shutdown, false when recovery has work to do.
func (w *WAL) Empty() bool { return w.size == walHeaderSize }

// Size returns the durable log size in bytes, excluding the fixed file
// header — the replay debt a crash right now would incur, and the
// quantity auto-checkpoint policies budget against.
func (w *WAL) Size() int64 { return w.size - walHeaderSize }

// Close closes the backend without checkpointing; call Reset first for
// a clean shutdown.
func (w *WAL) Close() error { return w.f.Close() }

// WALStats is a snapshot of the log's counters.
type WALStats struct {
	Records     uint64 // records group-committed
	Fsyncs      uint64 // group commits (one fsync each)
	Checkpoints uint64 // log resets after a checkpoint
	Replayed    uint64 // records recovered at open
	ReplayNs    int64  // time spent scanning the log at open
}

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Records:     w.records.Load(),
		Fsyncs:      w.fsyncs.Load(),
		Checkpoints: w.checkpoints.Load(),
		Replayed:    w.replayed.Load(),
		ReplayNs:    w.replayNs.Load(),
	}
}
