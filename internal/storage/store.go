// Package storage provides the disk substrate the indexes and join
// algorithms run on: fixed-size pages, page stores (file-backed and
// in-memory), and an LRU buffer pool with pin/unpin semantics and full
// I/O statistics.
//
// It plays the role that the SHORE storage manager plays in the paper's
// experiments: the paper compiles SHORE with 8 KB pages and a 64-page
// (512 KB) buffer pool, and reports I/O cost that is driven by buffer
// misses under LRU replacement. This package reproduces exactly that
// behaviour and exposes the miss counts so the benchmark harness can
// derive I/O time.
//
// Unlike the original in-memory substitute, the stores here assume disks
// fail: every page is stored with a small header (magic, format version,
// page-id echo, CRC32-C over the payload) sealed on write and verified on
// read, failures are classified as ErrCorruptPage or ErrTransientIO, the
// buffer pool retries transient read errors with capped backoff, and
// FaultStore injects deterministic faults for chaos testing.
//
// The buffer pool and both stores are safe for concurrent use: the pool
// shards its frames by page id behind per-shard mutexes so that the
// parallel ANN executor's subtree workers can read index pages through a
// shared pool. The index structures built on top remain single-writer,
// but once a tree enables copy-on-write versioning (see the mbrqt and
// rstar packages) that single writer may run concurrently with readers:
// published pages are never mutated, so reader pins and writer updates
// touch disjoint pages.
//
// Durability is layered on top by the WAL (see wal.go): mutations are
// logged and fsynced before they touch tree pages, checkpoints flush the
// pool with the tree's meta page written and synced last, and recovery
// replays the committed log suffix against the last checkpointed root.
package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// PageSize is the size of every page in bytes. The paper uses 8 KB pages.
const PageSize = 8192

// PageID identifies a page within a Store. Pages are numbered from zero.
type PageID uint32

// InvalidPage is a sentinel PageID that never refers to a real page.
const InvalidPage PageID = ^PageID(0)

// Store is a flat array of fixed-size pages. Implementations must allow
// reading any previously allocated page and writing any allocated page.
type Store interface {
	// ReadPage copies the content of page id into buf, which must be at
	// least PageSize bytes long. Implementations verify the page header
	// and return an error wrapping ErrCorruptPage when the stored bytes
	// fail verification.
	ReadPage(id PageID, buf []byte) error
	// WritePage overwrites page id with the first PageSize bytes of buf,
	// sealing the page header (checksum included) around the payload.
	WritePage(id PageID, buf []byte) error
	// Allocate appends a new zeroed page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Sync forces previously written pages to stable storage. A failure
	// wraps ErrWriteFailed: the durability of everything written since
	// the last successful Sync is unknown.
	Sync() error
	// Close releases the underlying resources.
	Close() error
}

// MemStore is an in-memory Store. It is the default substrate for tests
// and for experiments where only the buffer-miss counts (not real disk
// latency) matter. Pages are held in their physical form (header +
// payload) so that checksum verification — and FaultStore's corruption
// injection — behave identically to the file-backed store. All methods
// are safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte // physical pages: PageHeaderSize + PageSize bytes each
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(s.pages))
	}
	phys := s.pages[id]
	if err := verifyPage(phys, id); err != nil {
		return err
	}
	copy(buf[:PageSize], phys[PageHeaderSize:])
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(s.pages))
	}
	phys := s.pages[id]
	copy(phys[PageHeaderSize:], buf[:PageSize])
	sealPage(phys, id)
	return nil
}

// Allocate implements Store. The fresh page is sealed around a zero
// payload so that reading an allocated-but-never-written page verifies.
func (s *MemStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(len(s.pages))
	phys := make([]byte, physPageSize)
	sealPage(phys, id)
	s.pages = append(s.pages, phys)
	return id, nil
}

// NumPages implements Store.
func (s *MemStore) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Sync implements Store. Memory is as stable as it gets.
func (s *MemStore) Sync() error { return nil }

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = nil
	return nil
}

// mutatePhysical implements physicalMutator for fault injection.
func (s *MemStore) mutatePhysical(id PageID, mutate func(phys []byte)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("storage: mutate of unallocated page %d (have %d)", id, len(s.pages))
	}
	mutate(s.pages[id])
	return nil
}

// physBufPool recycles physical-page scratch buffers for the file store's
// read/write paths, keeping the steady state allocation-free.
var physBufPool = sync.Pool{New: func() any {
	b := make([]byte, physPageSize)
	return &b
}}

// FileStore is a Store backed by a single flat file of pages, the
// disk-resident variant used when experiments should touch a real
// filesystem. Each stored page is a PageHeaderSize header followed by the
// PageSize payload; there is no other on-disk format.
//
// Page reads and writes go through ReadAt/WriteAt, which the OS
// serialises per offset; the page count is guarded by a mutex, so all
// methods are safe for concurrent use.
type FileStore struct {
	f     *os.File
	mu    sync.RWMutex
	pages int
	path  string
	temp  bool
}

// NewFileStore creates (truncating) a page file at path.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create page file: %w", err)
	}
	return &FileStore{f: f, path: path}, nil
}

// OpenFileStore opens an existing page file at path for reading and
// writing. A non-empty file must be a whole number of checksummed pages
// (PageHeaderSize+PageSize bytes each) and start with the page magic;
// anything else — a damaged first header included — is refused with an
// error wrapping ErrCorruptPage rather than served unverified.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := info.Size()
	if size == 0 {
		return &FileStore{f: f, path: path}, nil
	}
	var head [4]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read page file header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[:]); magic != pageMagic || size%physPageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s (size %d, magic %#08x) is not a whole number of "+
			"%d-byte checksummed pages: %w", path, size, magic, physPageSize, ErrCorruptPage)
	}
	return &FileStore{f: f, path: path, pages: int(size / physPageSize)}, nil
}

// NewTempFileStore creates a page file in the default temp directory that
// is removed on Close.
func NewTempFileStore() (*FileStore, error) {
	f, err := os.CreateTemp("", "allnn-pages-*.db")
	if err != nil {
		return nil, fmt.Errorf("storage: create temp page file: %w", err)
	}
	return &FileStore{f: f, path: f.Name(), temp: true}, nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	s.mu.RLock()
	n := s.pages
	s.mu.RUnlock()
	if int(id) >= n {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, n)
	}
	physPtr := physBufPool.Get().(*[]byte)
	phys := *physPtr
	defer physBufPool.Put(physPtr)
	if _, err := s.f.ReadAt(phys, int64(id)*physPageSize); err != nil {
		return err
	}
	if err := verifyPage(phys, id); err != nil {
		return err
	}
	copy(buf[:PageSize], phys[PageHeaderSize:])
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	s.mu.RLock()
	n := s.pages
	s.mu.RUnlock()
	if int(id) >= n {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, n)
	}
	physPtr := physBufPool.Get().(*[]byte)
	phys := *physPtr
	defer physBufPool.Put(physPtr)
	copy(phys[PageHeaderSize:], buf[:PageSize])
	sealPage(phys, id)
	if _, err := s.f.WriteAt(phys, int64(id)*physPageSize); err != nil {
		return fmt.Errorf("storage: page %d: %v: %w", id, err, ErrWriteFailed)
	}
	return nil
}

// Allocate implements Store. The fresh page is sealed around a zero
// payload so that a read before any write verifies.
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(s.pages)
	if err := s.f.Truncate(int64(s.pages+1) * physPageSize); err != nil {
		return InvalidPage, fmt.Errorf("storage: grow page file: %w", err)
	}
	physPtr := physBufPool.Get().(*[]byte)
	phys := *physPtr
	clear(phys)
	sealPage(phys, id)
	_, err := s.f.WriteAt(phys, int64(id)*physPageSize)
	physBufPool.Put(physPtr)
	if err != nil {
		return InvalidPage, fmt.Errorf("storage: seal fresh page: %w", err)
	}
	s.pages++
	return id, nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pages
}

// Path returns the location of the backing file.
func (s *FileStore) Path() string { return s.path }

// Sync implements Store: an fsync of the backing file, the durability
// fence every checkpoint relies on.
func (s *FileStore) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync page file: %v: %w", err, ErrWriteFailed)
	}
	return nil
}

// Close implements Store, removing the file if it was created as a temp
// store.
func (s *FileStore) Close() error {
	err := s.f.Close()
	if s.temp {
		if rmErr := os.Remove(s.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// mutatePhysical implements physicalMutator for fault injection.
func (s *FileStore) mutatePhysical(id PageID, mutate func(phys []byte)) error {
	s.mu.RLock()
	n := s.pages
	s.mu.RUnlock()
	if int(id) >= n {
		return fmt.Errorf("storage: mutate of unallocated page %d (have %d)", id, n)
	}
	phys := make([]byte, physPageSize)
	if _, err := s.f.ReadAt(phys, int64(id)*physPageSize); err != nil {
		return err
	}
	mutate(phys)
	_, err := s.f.WriteAt(phys, int64(id)*physPageSize)
	return err
}
