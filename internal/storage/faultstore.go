package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig selects the faults a FaultStore injects. The zero value
// injects nothing. All probabilities are per operation in [0, 1].
//
// Two fault families exist:
//
//   - Transient failures (ReadErrProb, WriteErrProb, and the deterministic
//     FailReadsAfter/FailWritesAfter/FailAllocsAfter countdowns) reject
//     the operation with an error wrapping ErrTransientIO without touching
//     the stored bytes — the class the BufferPool retries.
//   - Corruptions (BitFlipProb, TornWriteProb) let the write succeed and
//     then damage the stored physical bytes below the checksum, so the
//     damage is discovered by a later ReadPage as ErrCorruptPage — exactly
//     how a real bit rot or torn sector surfaces. Corruption injection
//     requires the inner store to be a MemStore or FileStore (or a
//     FaultStore over one); over other stores it is silently skipped.
type FaultConfig struct {
	// Seed makes the fault sequence deterministic; 0 selects seed 1.
	Seed int64

	// ReadErrProb / WriteErrProb inject transient failures on ReadPage /
	// WritePage with the given probability.
	ReadErrProb  float64
	WriteErrProb float64

	// BitFlipProb flips one random bit of the stored physical page after a
	// successful WritePage.
	BitFlipProb float64
	// TornWriteProb zeroes a suffix of the stored physical page after a
	// successful WritePage, simulating a partially persisted (torn) write.
	TornWriteProb float64

	// ReadLatency / WriteLatency sleep before each operation, simulating
	// device latency (useful for cancellation and backoff tests).
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// FailReadsAfter, when n > 0, makes the n-th ReadPage from now — and
	// every later one — fail transiently (n=1 fails immediately). 0
	// disables. Same for writes and Allocate. These deterministic
	// countdowns are what targeted error-path tests use.
	FailReadsAfter  int
	FailWritesAfter int
	FailAllocsAfter int

	// FailSyncsAfter is the same countdown for Sync; injected failures
	// wrap ErrWriteFailed (a failed fsync is a durability loss, not a
	// retryable hiccup). The crash-recovery loop uses it to kill an index
	// mid-checkpoint.
	FailSyncsAfter int

	// TransientReadErrs fails each of the next n ReadPage calls
	// transiently and then subsides — unlike the sticky FailReadsAfter,
	// this is the knob for observing a retry that eventually succeeds.
	TransientReadErrs int
}

// FaultStats counts the faults a FaultStore actually injected.
type FaultStats struct {
	ReadErrors  uint64 // transient read failures injected
	WriteErrors uint64 // transient write failures injected
	AllocErrors uint64 // allocate failures injected
	SyncErrors  uint64 // sync failures injected
	BitFlips    uint64 // pages corrupted by a bit flip
	TornWrites  uint64 // pages corrupted by a torn write
}

// FaultStore wraps a Store and injects configurable failures: transient
// read/write errors, allocation failures, stored-byte corruption (bit
// flips, torn writes) and latency — all driven by a seeded RNG so chaos
// runs are reproducible. It is the first-class replacement for the
// test-only fault wrapper the error-path tests used to carry, and is safe
// for concurrent use.
//
// FaultStore passes verification through untouched: corruption faults
// damage the physical bytes underneath the checksum header, so they are
// detected by the inner store's own ReadPage verification, surfacing as
// wrapped ErrCorruptPage exactly like real media damage.
type FaultStore struct {
	inner Store
	mut   physicalMutator // inner's corruption hook, nil if unsupported

	mu    sync.Mutex
	rng   *rand.Rand
	cfg   FaultConfig
	stats FaultStats
}

// NewFaultStore wraps inner with fault injection per cfg.
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	fs := &FaultStore{inner: inner}
	fs.mut, _ = inner.(physicalMutator)
	fs.setConfigLocked(cfg)
	return fs
}

// SetConfig replaces the fault configuration (and reseeds the RNG),
// atomically with respect to in-flight operations. Typical use: build an
// index fault-free, then arm the faults for the query phase.
func (s *FaultStore) SetConfig(cfg FaultConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setConfigLocked(cfg)
}

func (s *FaultStore) setConfigLocked(cfg FaultConfig) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s.cfg = cfg
	s.rng = rand.New(rand.NewSource(seed))
}

// Config returns the current fault configuration.
func (s *FaultStore) Config() FaultConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Stats returns a snapshot of the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// decideRead decides, under the lock, whether this read faults; it
// returns the latency to sleep and the error to inject (nil for none).
func (s *FaultStore) decideRead(id PageID) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := s.cfg.ReadLatency
	if s.cfg.FailReadsAfter > 0 {
		if s.cfg.FailReadsAfter == 1 {
			s.stats.ReadErrors++
			return lat, fmt.Errorf("storage: injected fault reading page %d: %w", id, ErrTransientIO)
		}
		s.cfg.FailReadsAfter--
	}
	if s.cfg.TransientReadErrs > 0 {
		s.cfg.TransientReadErrs--
		s.stats.ReadErrors++
		return lat, fmt.Errorf("storage: injected fault reading page %d: %w", id, ErrTransientIO)
	}
	if s.cfg.ReadErrProb > 0 && s.rng.Float64() < s.cfg.ReadErrProb {
		s.stats.ReadErrors++
		return lat, fmt.Errorf("storage: injected fault reading page %d: %w", id, ErrTransientIO)
	}
	return lat, nil
}

// ReadPage implements Store.
func (s *FaultStore) ReadPage(id PageID, buf []byte) error {
	lat, err := s.decideRead(id)
	if lat > 0 {
		time.Sleep(lat)
	}
	if err != nil {
		return err
	}
	return s.inner.ReadPage(id, buf)
}

// decideWrite mirrors decideRead and additionally rolls the corruption
// dice: the returned corrupt func (nil for none) is applied to the stored
// physical bytes after a successful inner write.
func (s *FaultStore) decideWrite(id PageID) (time.Duration, error, func(phys []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := s.cfg.WriteLatency
	if s.cfg.FailWritesAfter > 0 {
		if s.cfg.FailWritesAfter == 1 {
			s.stats.WriteErrors++
			return lat, fmt.Errorf("storage: injected fault writing page %d: %w", id, ErrTransientIO), nil
		}
		s.cfg.FailWritesAfter--
	}
	if s.cfg.WriteErrProb > 0 && s.rng.Float64() < s.cfg.WriteErrProb {
		s.stats.WriteErrors++
		return lat, fmt.Errorf("storage: injected fault writing page %d: %w", id, ErrTransientIO), nil
	}
	if s.mut != nil {
		if s.cfg.BitFlipProb > 0 && s.rng.Float64() < s.cfg.BitFlipProb {
			bit := s.rng.Intn(physPageSize * 8)
			s.stats.BitFlips++
			return lat, nil, func(phys []byte) {
				if bit < len(phys)*8 {
					phys[bit/8] ^= 1 << (bit % 8)
				}
			}
		}
		if s.cfg.TornWriteProb > 0 && s.rng.Float64() < s.cfg.TornWriteProb {
			keep := s.rng.Intn(physPageSize)
			s.stats.TornWrites++
			return lat, nil, func(phys []byte) {
				if keep < len(phys) {
					for i := keep; i < len(phys); i++ {
						phys[i] = 0
					}
				}
			}
		}
	}
	return lat, nil, nil
}

// WritePage implements Store.
func (s *FaultStore) WritePage(id PageID, buf []byte) error {
	lat, err, corrupt := s.decideWrite(id)
	if lat > 0 {
		time.Sleep(lat)
	}
	if err != nil {
		return err
	}
	if err := s.inner.WritePage(id, buf); err != nil {
		return err
	}
	if corrupt != nil {
		return s.mut.mutatePhysical(id, corrupt)
	}
	return nil
}

// Allocate implements Store.
func (s *FaultStore) Allocate() (PageID, error) {
	s.mu.Lock()
	if s.cfg.FailAllocsAfter > 0 {
		if s.cfg.FailAllocsAfter == 1 {
			s.stats.AllocErrors++
			s.mu.Unlock()
			return InvalidPage, fmt.Errorf("storage: injected fault allocating page: %w", ErrTransientIO)
		}
		s.cfg.FailAllocsAfter--
	}
	s.mu.Unlock()
	return s.inner.Allocate()
}

// NumPages implements Store.
func (s *FaultStore) NumPages() int { return s.inner.NumPages() }

// Sync implements Store.
func (s *FaultStore) Sync() error {
	s.mu.Lock()
	if s.cfg.FailSyncsAfter > 0 {
		if s.cfg.FailSyncsAfter == 1 {
			s.stats.SyncErrors++
			s.mu.Unlock()
			return fmt.Errorf("storage: injected fault syncing store: %w", ErrWriteFailed)
		}
		s.cfg.FailSyncsAfter--
	}
	s.mu.Unlock()
	return s.inner.Sync()
}

// Close implements Store.
func (s *FaultStore) Close() error { return s.inner.Close() }

// mutatePhysical passes through so FaultStores compose.
func (s *FaultStore) mutatePhysical(id PageID, mutate func(phys []byte)) error {
	if s.mut == nil {
		return fmt.Errorf("storage: inner store %T does not expose physical pages", s.inner)
	}
	return s.mut.mutatePhysical(id, mutate)
}

// FlipBit deterministically flips the given bit (modulo the physical page
// size) of page id's stored bytes, bypassing the checksum seal. Flipping
// the same bit twice restores the page. Used by chaos tests to plant
// corruption that a later read must detect.
func (s *FaultStore) FlipBit(id PageID, bit int) error {
	if s.mut == nil {
		return fmt.Errorf("storage: inner store %T does not expose physical pages", s.inner)
	}
	return s.mut.mutatePhysical(id, func(phys []byte) {
		b := bit % (len(phys) * 8)
		if b < 0 {
			b += len(phys) * 8
		}
		phys[b/8] ^= 1 << (b % 8)
	})
}

// TearPage zeroes the stored physical bytes of page id from offset keep
// onward, simulating a torn write after the fact.
func (s *FaultStore) TearPage(id PageID, keep int) error {
	if s.mut == nil {
		return fmt.Errorf("storage: inner store %T does not expose physical pages", s.inner)
	}
	return s.mut.mutatePhysical(id, func(phys []byte) {
		if keep < 0 {
			keep = 0
		}
		for i := keep; i < len(phys); i++ {
			phys[i] = 0
		}
	})
}
