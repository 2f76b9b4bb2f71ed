// Package wire defines the annserve binary protocol: a version-checked
// handshake followed by length-prefixed frames carrying one encoded
// message each. Its speakers — internal/server (annserve),
// internal/router (annrouter, which is also a client of its shards) and
// ann/client — all go through this package, so the encoding of every
// message has exactly one definition. The server half of the protocol,
// Service, is here too: the one connection loop both daemons accept,
// frame, drain and shut down through.
//
// Stream layout (all integers big-endian):
//
//	handshake: "ANNS" magic, uint8 protocol version  (client → server)
//	frame:     uint32 payload length, payload bytes  (both directions)
//
// Every request payload begins with a RequestHeader (id, op, timeout);
// every response payload with the echoed request id and a ResponseKind.
// Responses to one request are either a single KindResult frame, or a
// sequence of KindStream frames closed by KindEnd (joins and box
// queries), or
// a single KindError frame carrying a typed error code.
//
// Framing contract: every frame goes through WriteFrame and ReadFrame,
// and every speaker hands them a per-connection buffer — a bufio.Writer
// flushed once per frame, a bufio.Reader. WriteFrame passes the length
// prefix and the payload to its writer separately and ReadFrame reads
// them separately, so the buffer is what makes a frame of up to its size
// one write on the socket (one segment under TCP_NODELAY, one wake-up
// for the peer) and a small reply one read. A speaker whose write fails
// or whose read ends mid-frame cannot tell where the next frame starts:
// it ends the connection rather than reading on.
package wire

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic opens every connection; a server reading anything else closes
// immediately (it is probably being probed by a non-annserve client).
const Magic = "ANNS"

// Version is the protocol version this build speaks. Version 2 added
// the shard-routing frames (OpShardMap, a coordinate-bearing box query
// and the SHARD_UNAVAILABLE error code); version 3 dropped the
// approximate-query request extension, so the trace extension follows
// the body directly, and the report's approximate-cut counter; version
// 4 carries the stats reply and the join report as one length-prefixed
// field holding each record's own JSON; version 5 dropped the
// partial-result block a router could append to a reply, and its error
// code, so a reply is complete or an error; version 6 has one box query,
// whose id-and-point rows stream like a join's, and carries the shard
// map as its record's JSON. There is one version and no negotiated
// downgrade: a peer announcing any other is rejected at the handshake
// rather than failing mid-stream on a frame it cannot parse.
const Version = 6

// MaxFrame bounds a single frame's payload. Requests are small; result
// streams are cut into frames below it (see Batcher). A peer announcing
// a larger frame is malformed and the connection is dropped.
const MaxFrame = 16 << 20

// Op identifies a request type.
type Op uint8

const (
	// OpOpen loads an index file into the catalog under a name.
	OpOpen Op = 1
	// OpClose removes a catalog index and closes its page file.
	OpClose Op = 2
	// OpList enumerates the catalog.
	OpList Op = 3
	// OpStats snapshots one catalog index's storage counters.
	OpStats Op = 4
	// OpKNN answers a point k-nearest-neighbor probe.
	OpKNN Op = 5
	// OpBatchKNN answers many kNN probes in one request.
	OpBatchKNN Op = 6
	// OpRange streams the ids and points inside an axis-aligned box.
	OpRange Op = 7
	// OpJoin runs an ANN/AkNN join, streaming result frames.
	OpJoin Op = 8
	// OpWithinDistance runs a distance join, streaming pair frames.
	OpWithinDistance Op = 9
	// OpClosestPairs returns the k closest cross-index pairs.
	OpClosestPairs Op = 10
	// OpInsert durably adds a batch of points to a live index.
	OpInsert Op = 11
	// OpDelete durably removes a batch of points from a live index.
	OpDelete Op = 12
	// OpShardMap returns the shard topology of a routed dataset
	// (annrouter only; a plain annserve answers BAD_REQUEST).
	// Version-gated: requires protocol version >= 2.
	OpShardMap Op = 13
)

// String implements fmt.Stringer; it is also the server's per-op
// metric label.
func (op Op) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpList:
		return "list"
	case OpStats:
		return "stats"
	case OpKNN:
		return "knn"
	case OpBatchKNN:
		return "batch_knn"
	case OpRange:
		return "range"
	case OpJoin:
		return "join"
	case OpWithinDistance:
		return "within_distance"
	case OpClosestPairs:
		return "closest_pairs"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpShardMap:
		return "shard_map"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ResponseKind distinguishes the frames a request can receive back.
type ResponseKind uint8

const (
	// KindResult is the single, final reply of a non-streaming op.
	KindResult ResponseKind = 1
	// KindStream is one chunk of a streaming op's results.
	KindStream ResponseKind = 2
	// KindEnd closes a stream, carrying the total result count.
	KindEnd ResponseKind = 3
	// KindError is a terminal typed error (for streams it may arrive
	// after KindStream frames: results emitted so far remain valid).
	KindError ResponseKind = 4
)

// ErrorCode is the typed failure class carried by a KindError frame.
type ErrorCode uint16

const (
	// CodeServerBusy: the admission queue is full; retry later.
	CodeServerBusy ErrorCode = 1
	// CodeDeadlineExceeded: the request's deadline passed (queued or
	// mid-query).
	CodeDeadlineExceeded ErrorCode = 2
	// CodeNotFound: no catalog index with that name.
	CodeNotFound ErrorCode = 3
	// CodeBadRequest: the request was malformed or semantically invalid
	// (dimension mismatch, k < 1, unknown op...).
	CodeBadRequest ErrorCode = 4
	// CodeShuttingDown: the server is draining; no new work accepted.
	CodeShuttingDown ErrorCode = 5
	// CodeCorruptIndex: the index file failed its header or checksum
	// verification.
	CodeCorruptIndex ErrorCode = 6
	// CodeInternal: anything else, including recovered panics.
	CodeInternal ErrorCode = 7
	// CodeWriteFailed: a mutation could not be made durable (failed log
	// append or fsync); the index refuses further writes until reopened,
	// and the failed batch's durability is indeterminate.
	CodeWriteFailed ErrorCode = 8
	// CodeShardUnavailable: a routed request needed a shard whose
	// backend is down (after retries). The router fails the whole
	// request with this code rather than answer over the other shards.
	CodeShardUnavailable ErrorCode = 9
)

// String implements fmt.Stringer with the protocol's canonical names.
func (c ErrorCode) String() string {
	switch c {
	case CodeServerBusy:
		return "SERVER_BUSY"
	case CodeDeadlineExceeded:
		return "DEADLINE_EXCEEDED"
	case CodeNotFound:
		return "NOT_FOUND"
	case CodeBadRequest:
		return "BAD_REQUEST"
	case CodeShuttingDown:
		return "SHUTTING_DOWN"
	case CodeCorruptIndex:
		return "CORRUPT_INDEX"
	case CodeInternal:
		return "INTERNAL"
	case CodeWriteFailed:
		return "WRITE_FAILED"
	case CodeShardUnavailable:
		return "SHARD_UNAVAILABLE"
	default:
		return fmt.Sprintf("CODE(%d)", uint16(c))
	}
}

// Error is a typed protocol error as surfaced to client callers.
type Error struct {
	Code ErrorCode
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// BadRequest builds a BAD_REQUEST error.
func BadRequest(format string, args ...any) *Error {
	return &Error{Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// IsCode reports whether err is (or wraps) a protocol error with the
// given code.
func IsCode(err error, code ErrorCode) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == code
}

// RequestHeader opens every request payload.
type RequestHeader struct {
	// ID is chosen by the client and echoed on every response frame,
	// tying frames back to requests.
	ID uint64
	// Op selects the message type that follows.
	Op Op
	// Timeout, when positive, is the client's remaining deadline budget
	// at send time; the server enforces it from arrival.
	Timeout time.Duration
	// TraceID is an optional client-chosen identifier echoed through the
	// server's logs, slow-query ring and in-flight table, tying a wire
	// request to client-side context. WantReport asks the server to
	// attach its report to the terminating StreamEnd of a join (rejected
	// on non-streaming ops). Both zero-valued encode to the unextended
	// frame: the trace extension (flags byte + trace-id string, directly
	// after the body) is appended only when at least one of them is set.
	TraceID    string
	WantReport bool
}

// flagWantReport is the only defined bit of the trace extension's flags
// byte; decoders reject unknown bits so they can be assigned meaning
// later without silently changing old servers' behavior.
const flagWantReport = 1 << 0

// MaxTraceIDLen bounds a client-supplied trace ID. Trace IDs land in
// logs, JSON tables and metrics labels, so they are kept short and
// (see CheckTraceID) printable.
const MaxTraceIDLen = 128

// CheckTraceID validates a trace ID for the wire: at most MaxTraceIDLen
// bytes of printable non-space ASCII, no quotes or backslashes — safe to
// embed in key=value log lines and JSON without escaping surprises. The
// empty string is valid (no trace).
func CheckTraceID(s string) error {
	if len(s) > MaxTraceIDLen {
		return fmt.Errorf("wire: trace id of %d bytes exceeds limit %d", len(s), MaxTraceIDLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return fmt.Errorf("wire: trace id contains invalid byte 0x%02x at %d", c, i)
		}
	}
	return nil
}

// --- handshake --------------------------------------------------------------

// WriteHandshake sends the connection preamble.
func WriteHandshake(w io.Writer) error {
	var b [5]byte
	copy(b[:], Magic)
	b[4] = Version
	_, err := w.Write(b[:])
	return err
}

// ReadHandshake consumes and verifies the connection preamble.
func ReadHandshake(r io.Reader) error {
	var b [5]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("wire: reading handshake: %w", err)
	}
	if string(b[:4]) != Magic {
		return fmt.Errorf("wire: bad handshake magic %q", b[:4])
	}
	if b[4] != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", b[4], Version)
	}
	return nil
}

// --- frames -----------------------------------------------------------------

// WriteFrame writes one length-prefixed frame as two writes to w, the
// prefix and the payload: w is a buffer the caller flushes (see the
// package doc).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	hdr[0] = byte(len(payload) >> 24)
	hdr[1] = byte(len(payload) >> 16)
	hdr[2] = byte(len(payload) >> 8)
	hdr[3] = byte(len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r, a buffered reader
// (see the package doc), rejecting frames beyond MaxFrame before
// allocating.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: peer announced %d-byte frame, limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: truncated %d-byte frame: %w", n, err)
	}
	return payload, nil
}
