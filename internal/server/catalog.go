package server

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"allnn/ann"
	"allnn/internal/storage"
	"allnn/internal/wire"
)

// ErrIndexNotFound is returned for catalog names with no open index.
var ErrIndexNotFound = errors.New("server: index not found")

// Catalog is the server's set of named, concurrently-shared index
// handles. Queries hold a per-entry read lock for their duration;
// Close takes the write lock, so an index is only ever closed once the
// last query over it has finished — the invariant that makes
// ann.Index.Close safe under a live query mix.
type Catalog struct {
	mu      sync.Mutex
	entries map[string]*catalogEntry
}

type catalogEntry struct {
	// mu guards the index against Close: every query holds RLock while
	// it runs; Close holds Lock while closing.
	mu     sync.RWMutex
	ix     *ann.Index
	closed bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*catalogEntry)}
}

// Add adopts an already-built index under name. The catalog owns the
// index from here on: it is closed by Catalog.Close or CloseAll.
func (c *Catalog) Add(name string, ix *ann.Index) error {
	if name == "" {
		return errors.New("server: index name must not be empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("server: index %q already open", name)
	}
	c.entries[name] = &catalogEntry{ix: ix}
	return nil
}

// Open opens the index file at path (see ann.OpenIndex) and adds it
// under name.
func (c *Catalog) Open(name, path string, cfg ann.IndexConfig) (*ann.Index, error) {
	// Reserve the name before the (slow) open so two concurrent opens
	// of the same name cannot both succeed.
	if name == "" {
		return nil, errors.New("server: index name must not be empty")
	}
	c.mu.Lock()
	if _, ok := c.entries[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("server: index %q already open", name)
	}
	placeholder := &catalogEntry{}
	placeholder.mu.Lock() // held until the open resolves
	c.entries[name] = placeholder
	c.mu.Unlock()

	ix, err := ann.OpenIndex(path, cfg)
	if err != nil {
		c.mu.Lock()
		delete(c.entries, name)
		c.mu.Unlock()
		placeholder.closed = true
		placeholder.mu.Unlock()
		return nil, err
	}
	placeholder.ix = ix
	placeholder.mu.Unlock()
	return ix, nil
}

// acquire returns the named index with its entry read-locked; the
// caller must call release exactly once when the query finishes.
func (c *Catalog) acquire(name string) (*catalogEntry, *ann.Index, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	c.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	e.mu.RLock()
	if e.closed || e.ix == nil {
		e.mu.RUnlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	return e, e.ix, nil
}

func (e *catalogEntry) release() { e.mu.RUnlock() }

// Close removes the named index from the catalog and closes it once
// every in-flight query over it has finished.
func (c *Catalog) Close(name string) error {
	c.mu.Lock()
	e, ok := c.entries[name]
	delete(c.entries, name)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	e.closed = true
	return e.ix.Close()
}

// List returns one wire.IndexInfo per open index, sorted by name.
func (c *Catalog) List() []wire.IndexInfo {
	c.mu.Lock()
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	out := make([]wire.IndexInfo, 0, len(names))
	for _, name := range names {
		e, ix, err := c.acquire(name)
		if err != nil {
			continue // closed between the snapshot and now
		}
		out = append(out, wire.IndexInfo{
			Name:   name,
			Points: uint64(ix.Len()),
			Dim:    uint32(ix.Dim()),
		})
		e.release()
	}
	return out
}

// CloseAll closes every index, returning the first error.
func (c *Catalog) CloseAll() error {
	c.mu.Lock()
	entries := c.entries
	c.entries = make(map[string]*catalogEntry)
	c.mu.Unlock()
	var first error
	for _, e := range entries {
		e.mu.Lock()
		if !e.closed {
			e.closed = true
			if err := e.ix.Close(); err != nil && first == nil {
				first = err
			}
		}
		e.mu.Unlock()
	}
	return first
}

// RequireNoPinnedFrames asserts, for every open index, that no buffer
// frames are pinned — the leak check concurrency tests run between
// workload phases.
func (c *Catalog) RequireNoPinnedFrames(t storage.TB) {
	t.Helper()
	c.mu.Lock()
	entries := maps.Clone(c.entries)
	c.mu.Unlock()
	for name, e := range entries {
		e.mu.RLock()
		if !e.closed && e.ix != nil {
			if n := e.ix.Stats().PinnedFrames; n != 0 {
				t.Errorf("index %q: buffer pool leak: %d frame(s) still pinned", name, n)
			}
		}
		e.mu.RUnlock()
	}
}
