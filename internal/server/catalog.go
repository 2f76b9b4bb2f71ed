package server

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"allnn/ann"
	"allnn/internal/storage"
	"allnn/internal/wire"
)

// ErrIndexNotFound is returned for catalog names with no open index.
var ErrIndexNotFound = errors.New("server: index not found")

// Catalog is the server's set of named, concurrently-shared index
// handles. It needs no lock of its own around a query: ann.Index.Close
// refuses new queries and waits for the running ones, and a query that
// reaches a closed index gets ann.ErrClosed, which the server answers
// NOT_FOUND as it does a name the catalog no longer holds.
type Catalog struct {
	mu sync.Mutex
	// indexes maps a name to its index; nil reserves a name while its
	// Open runs.
	indexes map[string]*ann.Index
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{indexes: make(map[string]*ann.Index)}
}

// reserve claims name for an index about to be added.
func (c *Catalog) reserve(name string) error {
	if name == "" {
		return errors.New("server: index name must not be empty")
	}
	if _, ok := c.indexes[name]; ok {
		return fmt.Errorf("server: index %q already open", name)
	}
	c.indexes[name] = nil
	return nil
}

// Add adopts an already-built index under name. The catalog owns the
// index from here on: it is closed by Catalog.Close or CloseAll.
func (c *Catalog) Add(name string, ix *ann.Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reserve(name); err != nil {
		return err
	}
	c.indexes[name] = ix
	return nil
}

// Open opens the index file at path (see ann.OpenIndex) and adds it
// under name. The name is reserved before the (slow) open, so two
// concurrent opens of it cannot both succeed; until the open returns it
// answers NOT_FOUND.
func (c *Catalog) Open(name, path string, cfg ann.IndexConfig) (*ann.Index, error) {
	c.mu.Lock()
	err := c.reserve(name)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ix, err := ann.OpenIndex(path, cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.indexes[name]; !ok || cur != nil {
		// CloseAll ran meanwhile, and the name may be another index's.
		if err == nil {
			ix.Close()
			err = fmt.Errorf("%w: %q closed while opening", ErrIndexNotFound, name)
		}
		return nil, err
	}
	if err != nil {
		delete(c.indexes, name)
		return nil, err
	}
	c.indexes[name] = ix
	return ix, nil
}

// index returns the named open index.
func (c *Catalog) index(name string) (*ann.Index, error) {
	c.mu.Lock()
	ix := c.indexes[name]
	c.mu.Unlock()
	if ix == nil {
		return nil, fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	return ix, nil
}

// Close removes the named index from the catalog and closes it once
// every in-flight query over it has finished.
func (c *Catalog) Close(name string) error {
	c.mu.Lock()
	ix := c.indexes[name]
	if ix != nil {
		delete(c.indexes, name)
	}
	c.mu.Unlock()
	if ix == nil {
		return fmt.Errorf("%w: %q", ErrIndexNotFound, name)
	}
	return ix.Close()
}

// List returns one wire.IndexInfo per open index, sorted by name.
func (c *Catalog) List() []wire.IndexInfo {
	c.mu.Lock()
	out := make([]wire.IndexInfo, 0, len(c.indexes))
	for name, ix := range c.indexes {
		if ix != nil {
			out = append(out, wire.IndexInfo{Name: name, Points: uint64(ix.Len()), Dim: uint32(ix.Dim())})
		}
	}
	c.mu.Unlock()
	slices.SortFunc(out, func(a, b wire.IndexInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// CloseAll closes every index, returning the first error.
func (c *Catalog) CloseAll() error {
	c.mu.Lock()
	indexes := c.indexes
	c.indexes = make(map[string]*ann.Index)
	c.mu.Unlock()
	var first error
	for _, ix := range indexes {
		if ix == nil {
			continue
		}
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RequireNoPinnedFrames asserts, for every open index, that no buffer
// frames are pinned — the leak check concurrency tests run between
// workload phases.
func (c *Catalog) RequireNoPinnedFrames(t storage.TB) {
	t.Helper()
	c.mu.Lock()
	indexes := maps.Clone(c.indexes)
	c.mu.Unlock()
	for name, ix := range indexes {
		if ix == nil {
			continue
		}
		if n := ix.Stats().PinnedFrames; n != 0 {
			t.Errorf("index %q: buffer pool leak: %d frame(s) still pinned", name, n)
		}
	}
}
