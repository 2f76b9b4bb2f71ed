package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every stored page carries a small physical header ahead of its PageSize
// payload, playing the role SHORE's page LSN/checksum machinery plays for
// the paper's experiments: disks fail, writes tear, and a storage manager
// must notice before corrupt bytes reach the index decoders.
//
// Physical page layout (PageHeaderSize + PageSize bytes):
//
//	offset  0: magic    uint32  — pageMagic ("ANNP")
//	offset  4: version  uint16  — pageFormatVersion
//	offset  6: reserved uint16  — must be zero
//	offset  8: pageID   uint32  — echo of the page's own id, catching
//	                              misdirected reads/writes
//	offset 12: crc      uint32  — CRC32-C over the PageSize payload
//	offset 16: payload  [PageSize]byte
//
// The header is sealed by every WritePage (and Allocate) and verified by
// every ReadPage; any mismatch surfaces as a wrapped ErrCorruptPage. The
// callers of Store only ever see the PageSize payload — framing is
// invisible above the store. OpenFileStore refuses a file that does not
// start with this header.
const (
	// PageHeaderSize is the per-page on-disk overhead in bytes.
	PageHeaderSize = 16
	// physPageSize is the stored size of one page: header plus payload.
	physPageSize = PageHeaderSize + PageSize

	pageMagic         = 0x414E4E50 // "PNNA" little-endian; reads as "ANNP" on disk
	pageFormatVersion = 1
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealPage writes a valid header over phys (header + payload) for page id.
// The payload bytes must already be in place.
func sealPage(phys []byte, id PageID) {
	binary.LittleEndian.PutUint32(phys[0:], pageMagic)
	binary.LittleEndian.PutUint16(phys[4:], pageFormatVersion)
	binary.LittleEndian.PutUint16(phys[6:], 0)
	binary.LittleEndian.PutUint32(phys[8:], uint32(id))
	binary.LittleEndian.PutUint32(phys[12:], crc32.Checksum(phys[PageHeaderSize:physPageSize], castagnoli))
}

// verifyPage checks the header of phys against page id and the payload
// checksum. Any mismatch returns an error wrapping ErrCorruptPage.
func verifyPage(phys []byte, id PageID) error {
	if got := binary.LittleEndian.Uint32(phys[0:]); got != pageMagic {
		return fmt.Errorf("storage: page %d: bad magic %#08x: %w", id, got, ErrCorruptPage)
	}
	if got := binary.LittleEndian.Uint16(phys[4:]); got != pageFormatVersion {
		return fmt.Errorf("storage: page %d: unsupported format version %d: %w", id, got, ErrCorruptPage)
	}
	if got := binary.LittleEndian.Uint16(phys[6:]); got != 0 {
		return fmt.Errorf("storage: page %d: nonzero reserved header field %#04x: %w", id, got, ErrCorruptPage)
	}
	if got := binary.LittleEndian.Uint32(phys[8:]); got != uint32(id) {
		return fmt.Errorf("storage: page %d: header claims page %d (misdirected I/O): %w", id, got, ErrCorruptPage)
	}
	want := binary.LittleEndian.Uint32(phys[12:])
	if got := crc32.Checksum(phys[PageHeaderSize:physPageSize], castagnoli); got != want {
		return fmt.Errorf("storage: page %d: checksum mismatch (stored %#08x, computed %#08x): %w",
			id, want, got, ErrCorruptPage)
	}
	return nil
}

// physicalMutator is implemented by stores that can expose a page's raw
// physical bytes (header included) for in-place mutation WITHOUT resealing
// the header. It exists for FaultStore's corruption injection — bit flips
// and torn writes must damage the stored bytes below the checksum so that
// the next ReadPage detects them exactly as a real torn sector would be
// detected.
type physicalMutator interface {
	mutatePhysical(id PageID, mutate func(phys []byte)) error
}
