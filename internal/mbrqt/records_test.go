package mbrqt

import (
	"bytes"
	"math/rand"
	"testing"

	"allnn/internal/storage"
)

func newRS() *recordStore {
	return newRecordStore(storage.NewBufferPool(storage.NewMemStore(), 256))
}

// read returns a copy of the record bytes. Production code reads records
// in place (walkRecords); the record-store tests want the bytes.
func (rs *recordStore) read(ref nodeRef) ([]byte, error) {
	f, err := rs.pool.Get(ref.page())
	if err != nil {
		return nil, err
	}
	defer f.Release()
	rec, err := recordFromPage(f.Data(), ref.slot())
	return bytes.Clone(rec), err
}

func mkRec(seed byte, n int) []byte {
	rec := make([]byte, n)
	for i := range rec {
		rec[i] = seed + byte(i%7)
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	rs := newRS()
	rec := mkRec(1, 100)
	ref, err := rs.alloc(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, got) {
		t.Fatal("record corrupted on round trip")
	}
}

func TestRecordsPackIntoSharedPages(t *testing.T) {
	rs := newRS()
	// 50 records of 100 bytes comfortably fit 1 page.
	var refs []nodeRef
	for i := 0; i < 50; i++ {
		ref, err := rs.alloc(mkRec(byte(i), 100))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	pages := map[storage.PageID]bool{}
	for _, r := range refs {
		pages[r.page()] = true
	}
	if len(pages) != 1 {
		t.Fatalf("50 x 100B records spread over %d pages, want 1", len(pages))
	}
}

func TestRecordAllocRejectsOversized(t *testing.T) {
	rs := newRS()
	if _, err := rs.alloc(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("expected error for oversized record")
	}
	// Exactly max must work.
	if _, err := rs.alloc(make([]byte, maxRecordSize)); err != nil {
		t.Fatal(err)
	}
}

func TestRecordFreeAndReuse(t *testing.T) {
	rs := newRS()
	ref, err := rs.alloc(mkRec(1, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.free(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.read(ref); err == nil {
		t.Fatal("read of freed record should fail")
	}
	// The freed slot must be reusable.
	ref2, err := rs.alloc(mkRec(2, 500))
	if err != nil {
		t.Fatal(err)
	}
	if ref2.page() != ref.page() {
		t.Fatalf("freed space not reused: page %d vs %d", ref2.page(), ref.page())
	}
}

func TestRecordUpdateInPlace(t *testing.T) {
	rs := newRS()
	ref, err := rs.alloc(mkRec(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink: must stay at the same ref.
	small := mkRec(9, 200)
	newRef, err := rs.update(ref, small)
	if err != nil {
		t.Fatal(err)
	}
	if newRef != ref {
		t.Fatal("shrinking update relocated the record")
	}
	got, err := rs.read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, got) {
		t.Fatal("update lost data")
	}
}

func TestRecordUpdateGrowWithinPage(t *testing.T) {
	rs := newRS()
	ref, err := rs.alloc(mkRec(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	big := mkRec(2, 4000)
	newRef, err := rs.update(ref, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.read(newRef)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, got) {
		t.Fatal("grown record corrupted")
	}
}

func TestRecordUpdateRelocates(t *testing.T) {
	rs := newRS()
	// Fill a page nearly full.
	first, err := rs.alloc(mkRec(1, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.alloc(mkRec(2, 4000)); err != nil {
		t.Fatal(err)
	}
	// Growing the first record cannot fit its page anymore.
	big := mkRec(3, 6000)
	newRef, err := rs.update(first, big)
	if err != nil {
		t.Fatal(err)
	}
	if newRef == first {
		t.Fatal("update should have relocated the record")
	}
	got, err := rs.read(newRef)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, got) {
		t.Fatal("relocated record corrupted")
	}
	if _, err := rs.read(first); err == nil {
		t.Fatal("old slot should be freed after relocation")
	}
}

func TestRecordCompactionReclaimsFragmentation(t *testing.T) {
	rs := newRS()
	// Alternate-allocate then free half, leaving holes.
	var refs []nodeRef
	for i := 0; i < 16; i++ {
		ref, err := rs.alloc(mkRec(byte(i), 480))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	page := refs[0].page()
	for i := 0; i < 16; i += 2 {
		if refs[i].page() == page {
			if err := rs.free(refs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A large record must fit via compaction of the fragmented page.
	big := mkRec(99, 3000)
	ref, err := rs.alloc(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, got) {
		t.Fatal("record corrupted after compaction path")
	}
	// Survivors must be intact.
	for i := 1; i < 16; i += 2 {
		got, err := rs.read(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mkRec(byte(i), 480), got) {
			t.Fatalf("survivor %d corrupted after compaction", i)
		}
	}
}

// TestRecordRandomizedAgainstModel drives the store with random
// alloc/free/update/read traffic against an in-memory map model.
func TestRecordRandomizedAgainstModel(t *testing.T) {
	rs := newRS()
	rng := rand.New(rand.NewSource(31))
	model := map[nodeRef][]byte{}
	var live []nodeRef
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // alloc
			rec := mkRec(byte(step), 16+rng.Intn(2000))
			ref, err := rs.alloc(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, clash := model[ref]; clash {
				t.Fatalf("step %d: alloc returned live ref %v", step, ref)
			}
			model[ref] = rec
			live = append(live, ref)
		case op < 6: // free
			i := rng.Intn(len(live))
			ref := live[i]
			if err := rs.free(ref); err != nil {
				t.Fatal(err)
			}
			delete(model, ref)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 8: // update
			i := rng.Intn(len(live))
			ref := live[i]
			rec := mkRec(byte(step+1), 16+rng.Intn(3000))
			newRef, err := rs.update(ref, rec)
			if err != nil {
				t.Fatal(err)
			}
			if newRef != ref {
				delete(model, ref)
				live[i] = newRef
			}
			model[newRef] = rec
		default: // read
			ref := live[rng.Intn(len(live))]
			got, err := rs.read(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(model[ref], got) {
				t.Fatalf("step %d: record %v corrupted", step, ref)
			}
		}
	}
	// Final verification of every live record.
	for ref, want := range model {
		got, err := rs.read(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("final check: record %v corrupted", ref)
		}
	}
	if rs.pool.PinnedFrames() != 0 {
		t.Fatal("record store leaked pinned frames")
	}
}

func TestNodeRefEncoding(t *testing.T) {
	ref := makeRef(12345, 678)
	if ref.page() != 12345 || ref.slot() != 678 {
		t.Fatalf("ref round trip: page %d slot %d", ref.page(), ref.slot())
	}
}
