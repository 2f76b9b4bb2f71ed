package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCurrentFormatRoundTrip makes sure the reopen path detects the
// checksummed layout and keeps verifying it.
func TestCurrentFormatRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "current.db")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i * 3)
	}
	if err := s.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	buf := make([]byte, PageSize)
	if err := s2.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("payload did not round-trip through the header")
	}

	// Damage one payload byte on disk: the reopen store must refuse it.
	fh, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt([]byte{0xFF}, int64(PageHeaderSize+100)); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	if err := s2.ReadPage(id, buf); !IsCorrupt(err) {
		t.Fatalf("ReadPage of damaged page = %v, want ErrCorruptPage", err)
	}
}

// TestOpenFileStoreRejectsUnrecognized covers what OpenFileStore must
// refuse, each with an error wrapping ErrCorruptPage: a length that is no
// whole number of pages, a raw pre-header file, and a checksummed file
// whose first header lost its magic. The last is 512 pages long because
// 512 physical pages are also a whole number of PageSize pages — the file
// the old format sniffing opened as "legacy" and served unverified.
func TestOpenFileStoreRejectsUnrecognized(t *testing.T) {
	dir := t.TempDir()
	damaged := filepath.Join(dir, "damaged.db")
	s, err := NewFileStore(damaged)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if (512*physPageSize)%PageSize != 0 {
		t.Fatalf("%d physical pages are not a whole number of %d-byte pages", 512, PageSize)
	}
	fh, err := os.OpenFile(damaged, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 0); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	garbage := filepath.Join(dir, "garbage.db")
	if err := os.WriteFile(garbage, make([]byte, PageSize+17), 0o644); err != nil {
		t.Fatal(err)
	}
	raw := filepath.Join(dir, "raw.db")
	if err := os.WriteFile(raw, make([]byte, 3*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{damaged, garbage, raw} {
		s, err := OpenFileStore(path)
		if err == nil {
			s.Close()
			t.Errorf("OpenFileStore(%s) accepted the file", filepath.Base(path))
		} else if !errors.Is(err, ErrCorruptPage) {
			t.Errorf("OpenFileStore(%s) = %v, want an error wrapping ErrCorruptPage", filepath.Base(path), err)
		}
	}
}

// TestVerifyPageTaxonomy exercises each header check directly.
func TestVerifyPageTaxonomy(t *testing.T) {
	phys := make([]byte, physPageSize)
	for i := range phys {
		phys[i] = byte(i)
	}
	sealPage(phys, 7)
	if err := verifyPage(phys, 7); err != nil {
		t.Fatalf("freshly sealed page fails verification: %v", err)
	}
	// Misdirected I/O: valid page, wrong id.
	if err := verifyPage(phys, 8); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("verify with wrong id = %v, want ErrCorruptPage", err)
	}
	// Payload damage.
	phys[PageHeaderSize+5] ^= 1
	if err := verifyPage(phys, 7); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("verify with flipped payload bit = %v, want ErrCorruptPage", err)
	}
	phys[PageHeaderSize+5] ^= 1
	// Header damage: bad magic.
	phys[0] ^= 1
	if err := verifyPage(phys, 7); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("verify with bad magic = %v, want ErrCorruptPage", err)
	}
}
