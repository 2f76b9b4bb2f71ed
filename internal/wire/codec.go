package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends primitive values to a growing payload buffer. It
// never fails: sizing errors are the decoder's problem, by design —
// every value the encoder can produce must decode back.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder reusing buf's storage (pass nil to
// allocate fresh).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

func (e *Encoder) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) {
	e.U64(math.Float64bits(v))
}
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Uvarint writes a variable-length count or length.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// String writes a uvarint length followed by the raw bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s writes a uvarint count followed by the coordinates.
func (e *Encoder) F64s(vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// U64s writes a uvarint count followed by the values.
func (e *Encoder) U64s(vs []uint64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Decoder reads primitive values from a payload buffer. It is
// sticky-error: after the first malformed read every further read
// returns a zero value, and Err reports the failure. Every slice count
// is validated against the bytes actually remaining, so a hostile
// payload cannot force a large allocation.
type Decoder struct {
	buf []byte
	off int
	err error
	// f64s and nbs are the arrays F64s and neighbors carve their results
	// from once reserve has sized them, so a reply of many small points
	// and neighbor lists costs two allocations, not one per slice.
	f64s []float64
	nbs  []Neighbor
}

// NewDecoder returns a decoder over the payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the decoder's error, or an error if unread bytes
// remain — a length-prefixed payload must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed %s at offset %d", what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8(what string) uint8 {
	b := d.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) U16(what string) uint16 {
	b := d.take(2, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *Decoder) U32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *Decoder) U64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *Decoder) I64(what string) int64 { return int64(d.U64(what)) }

func (d *Decoder) F64(what string) float64 { return math.Float64frombits(d.U64(what)) }

func (d *Decoder) Bool(what string) bool {
	switch d.U8(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(what)
		return false
	}
}

func (d *Decoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint element count and validates it against the
// bytes remaining, given the minimum encoded size of one element.
func (d *Decoder) Count(minElemBytes int, what string) int {
	v := d.Uvarint(what)
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	// v*minElemBytes <= remaining, without the division (this runs once per
	// point of a reply) and without overflow: the product is formed only
	// once v itself is known to be at most the remaining byte count.
	if rem := uint64(d.Remaining()); v > rem || v*uint64(minElemBytes) > rem {
		d.fail(what)
		return 0
	}
	return int(v)
}

func (d *Decoder) String(what string) string {
	n := d.Count(1, what)
	b := d.take(n, what)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a coordinate list. After reserve, the lists of a reply share
// one backing array (capped, so appending to one cannot reach the next):
// whoever retains one of them retains the reply's coordinates.
func (d *Decoder) F64s(what string) []float64 {
	n := d.Count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(8*n, what) // cannot fail: Count checked n against the same bytes
	var vs []float64
	if at := len(d.f64s); cap(d.f64s)-at >= n {
		d.f64s = d.f64s[:at+n]
		vs = d.f64s[at : at+n : at+n]
	} else {
		vs = make([]float64, n)
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vs
}

func (d *Decoder) U64s(what string) []uint64 {
	n := d.Count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(8*n, what) // cannot fail: Count checked n against the same bytes
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return vs
}
