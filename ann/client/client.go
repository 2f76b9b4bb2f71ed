// Package client is the typed Go client for annserve. One Client owns
// one TCP connection, reused across requests; methods are safe for
// concurrent use (requests serialise over the connection, matching the
// server's sequential per-connection processing). Context deadlines
// propagate to the server in the request header, so the server aborts
// the query engine-side when the budget runs out — the client does not
// just stop listening.
//
// A request leaves in one write and replies are read through a buffer.
// The first transport or framing error — a failed write, a reply cut
// off by the socket deadline or a reset, a frame that does not decode
// or answers another request — ends the connection: the Client returns
// that error from every later request without touching the socket, since
// the stream may still hold the rest of the failed reply. A typed server
// error (*wire.Error) is an answer, not a transport error, and leaves
// the connection usable.
package client

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"allnn/ann"
	"allnn/internal/wire"
)

// ioGrace is added to socket deadlines beyond the request deadline, so
// the server's own DEADLINE_EXCEEDED reply (the authoritative one) wins
// the race against the client's socket timeout.
const ioGrace = 2 * time.Second

// IndexInfo describes one catalog index.
type IndexInfo struct {
	Name   string
	Kind   ann.IndexKind
	Points int
	Dim    int
}

// Client is a connection to an annserve server.
type Client struct {
	conn net.Conn
	// reqMu serialises whole requests (including streamed responses)
	// over the connection, and guards everything below it.
	reqMu  chanMutex
	br     *bufio.Reader
	bw     *bufio.Writer
	nextID uint64
	encBuf []byte
	// err is the first transport or framing error; once set, every
	// request fails with it.
	err error
}

// chanMutex is a mutex that can also be acquired with a context.
type chanMutex chan struct{}

func (m chanMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chanMutex) unlock() { <-m }

// Dial connects and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial bounded by a context.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(dl)
	}
	if err := wire.WriteHandshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, reqMu: make(chanMutex, 1),
		br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Close closes the connection. In-flight requests fail.
func (c *Client) Close() error { return c.conn.Close() }

// --- error classification ---------------------------------------------------

// IsBusy reports whether err is the server's SERVER_BUSY rejection.
func IsBusy(err error) bool { return wire.IsCode(err, wire.CodeServerBusy) }

// IsDeadlineExceeded reports whether err is the server's
// DEADLINE_EXCEEDED rejection.
func IsDeadlineExceeded(err error) bool { return wire.IsCode(err, wire.CodeDeadlineExceeded) }

// IsNotFound reports whether err means a missing index (or file).
func IsNotFound(err error) bool { return wire.IsCode(err, wire.CodeNotFound) }

// IsShuttingDown reports whether err is the server's drain rejection.
func IsShuttingDown(err error) bool { return wire.IsCode(err, wire.CodeShuttingDown) }

// IsBadRequest reports whether the server rejected the request as
// malformed or semantically invalid.
func IsBadRequest(err error) bool { return wire.IsCode(err, wire.CodeBadRequest) }

// IsCorruptIndex reports whether an index file failed verification.
func IsCorruptIndex(err error) bool { return wire.IsCode(err, wire.CodeCorruptIndex) }

// IsShardUnavailable reports whether a router failed the request
// because a shard it needed had its backend down (after retries). A
// routed answer is exact or fails: a routed stream fails so before its
// first row.
func IsShardUnavailable(err error) bool { return wire.IsCode(err, wire.CodeShardUnavailable) }

// IsWriteFailed reports whether err is the server's WRITE_FAILED error:
// an Insert/Delete batch could not be made durable (failed log append or
// fsync). The index refuses further writes until reopened; the failed
// batch's durability is indeterminate — after a server crash, recovery
// may surface a committed prefix of it.
func IsWriteFailed(err error) bool { return wire.IsCode(err, wire.CodeWriteFailed) }

// --- request plumbing -------------------------------------------------------

// begin acquires the connection and writes the request in one write,
// returning its id. The caller must call c.reqMu.unlock() once done
// reading frames. opts carries the trace header fields; the zero value
// (the only value non-join ops may pass) encodes the unextended header.
func (c *Client) begin(ctx context.Context, op wire.Op, body wire.Message, opts JoinOptions) (uint64, error) {
	if err := c.reqMu.lock(ctx); err != nil {
		return 0, err
	}
	if c.err != nil {
		c.reqMu.unlock()
		return 0, c.err
	}
	c.nextID++
	hdr := wire.RequestHeader{ID: c.nextID, Op: op,
		TraceID: opts.TraceID, WantReport: opts.WantReport}
	if dl, ok := ctx.Deadline(); ok {
		hdr.Timeout = time.Until(dl)
		if hdr.Timeout <= 0 {
			c.reqMu.unlock()
			return 0, context.DeadlineExceeded
		}
		c.conn.SetDeadline(dl.Add(ioGrace))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	payload, err := wire.EncodeRequest(hdr, body, c.encBuf)
	if err != nil {
		c.reqMu.unlock()
		return 0, err
	}
	c.encBuf = payload
	err = wire.WriteFrame(c.bw, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.reqMu.unlock()
		return 0, c.fail(fmt.Errorf("client: sending %s request: %w", op, err))
	}
	return hdr.ID, nil
}

// fail latches err as the connection's terminal error and returns it.
// The caller holds reqMu.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// readReply reads one response frame for request id, mapping KindError
// frames to *wire.Error. Any other failure ends the connection.
func (c *Client) readReply(id uint64) (wire.ResponseKind, wire.Message, error) {
	payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return 0, nil, c.fail(fmt.Errorf("client: reading response: %w", err))
	}
	gotID, kind, _, body, err := wire.DecodeResponse(payload)
	if err != nil {
		return 0, nil, c.fail(err)
	}
	if gotID != id {
		return 0, nil, c.fail(fmt.Errorf("client: response for request %d while awaiting %d", gotID, id))
	}
	if kind == wire.KindError {
		er := body.(*wire.ErrorReply)
		return kind, nil, &wire.Error{Code: er.Code, Msg: er.Msg}
	}
	return kind, body, nil
}

// roundTrip performs a non-streaming request and returns the single
// KindResult body.
func (c *Client) roundTrip(ctx context.Context, op wire.Op, body wire.Message) (wire.Message, error) {
	id, err := c.begin(ctx, op, body, JoinOptions{})
	if err != nil {
		return nil, err
	}
	defer c.reqMu.unlock()
	return c.result(id, op)
}

// result reads the single KindResult reply to request id. The caller
// holds reqMu.
func (c *Client) result(id uint64, op wire.Op) (wire.Message, error) {
	kind, reply, err := c.readReply(id)
	if err != nil {
		return nil, err
	}
	if kind != wire.KindResult {
		return nil, c.fail(fmt.Errorf("client: unexpected frame kind %d for %s", kind, op))
	}
	return reply, nil
}

// --- catalog ops ------------------------------------------------------------

// Open loads the index file at path into the server's catalog as name.
func (c *Client) Open(ctx context.Context, name, path string) (IndexInfo, error) {
	reply, err := c.roundTrip(ctx, wire.OpOpen, &wire.OpenReq{Name: name, Path: path})
	if err != nil {
		return IndexInfo{}, err
	}
	return toIndexInfo(reply.(*wire.OpenReply).Info), nil
}

// CloseIndex removes name from the server's catalog and closes it.
func (c *Client) CloseIndex(ctx context.Context, name string) error {
	_, err := c.roundTrip(ctx, wire.OpClose, &wire.CloseReq{Name: name})
	return err
}

// List enumerates the server's catalog.
func (c *Client) List(ctx context.Context) ([]IndexInfo, error) {
	reply, err := c.roundTrip(ctx, wire.OpList, &wire.ListReq{})
	if err != nil {
		return nil, err
	}
	infos := reply.(*wire.ListReply).Indexes
	out := make([]IndexInfo, len(infos))
	for i, info := range infos {
		out[i] = toIndexInfo(info)
	}
	return out, nil
}

// Stats snapshots one catalog index's storage counters. A reply that
// does not decode to a valid ann.IndexStats ends the connection.
func (c *Client) Stats(ctx context.Context, name string) (ann.IndexStats, error) {
	var st ann.IndexStats
	id, err := c.begin(ctx, wire.OpStats, &wire.StatsReq{Name: name}, JoinOptions{})
	if err != nil {
		return st, err
	}
	defer c.reqMu.unlock()
	reply, err := c.result(id, wire.OpStats)
	if err != nil {
		return st, err
	}
	if err := decodeRecord("stats", reply.(*wire.StatsReply).Stats, &st); err != nil {
		return ann.IndexStats{}, c.fail(err)
	}
	return st, nil
}

// --- mutations --------------------------------------------------------------

// Insert durably adds a batch of points to a live catalog index; ids and
// points are parallel slices. The whole batch is committed with one log
// fsync — a nil error means all of it survives any crash — and becomes
// visible atomically: queries never observe a partial batch. Returns the
// index's point count after the batch.
func (c *Client) Insert(ctx context.Context, index string, ids []uint64, points []ann.Point) (size uint64, err error) {
	reply, err := c.roundTrip(ctx, wire.OpInsert, &wire.InsertReq{Index: index, IDs: ids, Points: points})
	if err != nil {
		return 0, err
	}
	return reply.(*wire.InsertReply).Size, nil
}

// Delete durably removes a batch of points (matched by id AND
// coordinates) from a live catalog index, with the same commit and
// visibility guarantees as Insert. Returns how many entries matched an
// indexed point and the index's point count after the batch; absent
// points are durable no-ops.
func (c *Client) Delete(ctx context.Context, index string, ids []uint64, points []ann.Point) (found, size uint64, err error) {
	reply, err := c.roundTrip(ctx, wire.OpDelete, &wire.DeleteReq{Index: index, IDs: ids, Points: points})
	if err != nil {
		return 0, 0, err
	}
	rep := reply.(*wire.DeleteReply)
	return rep.Found, rep.Size, nil
}

// --- queries ----------------------------------------------------------------
//
// Rows come back as the decoder built them, in the engine's own row
// types: every reply frame decodes into fresh arrays, so a returned row
// stays valid, and the caller's to keep, after the next request.

// wireK narrows a k to the wire's uint32, refusing one outside
// [1, MaxUint32] before anything is sent.
func wireK(k int) (uint32, error) {
	if k < 1 || uint64(k) > math.MaxUint32 {
		return 0, wire.BadRequest("k must be in [1, %d], got %d", uint32(math.MaxUint32), k)
	}
	return uint32(k), nil
}

// KNN returns the k nearest indexed points to q in the named index.
func (c *Client) KNN(ctx context.Context, index string, q ann.Point, k int) ([]ann.Neighbor, error) {
	k32, err := wireK(k)
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(ctx, wire.OpKNN, &wire.KNNReq{Index: index, K: k32, Point: q})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.KNNReply).Neighbors, nil
}

// BatchKNN answers one kNN probe per query point in a single request;
// results come back in request order with IDs 0..len(qs)-1. A reply with
// another row count, or a row out of place, ends the connection.
func (c *Client) BatchKNN(ctx context.Context, index string, qs []ann.Point, k int) ([]ann.Result, error) {
	k32, err := wireK(k)
	if err != nil {
		return nil, err
	}
	id, err := c.begin(ctx, wire.OpBatchKNN, &wire.BatchKNNReq{Index: index, K: k32, Points: qs}, JoinOptions{})
	if err != nil {
		return nil, err
	}
	defer c.reqMu.unlock()
	reply, err := c.result(id, wire.OpBatchKNN)
	if err != nil {
		return nil, err
	}
	res := reply.(*wire.BatchKNNReply).Results
	if len(res) != len(qs) {
		return nil, c.fail(fmt.Errorf("client: batch of %d probes answered with %d rows", len(qs), len(res)))
	}
	for i := range res {
		if res[i].ID != uint64(i) {
			return nil, c.fail(fmt.Errorf("client: batch row %d carries id %d", i, res[i].ID))
		}
	}
	return res, nil
}

// Range returns the ids and coordinates of the indexed points inside
// the box [lo, hi] (boundaries inclusive), as parallel slices, as
// ann.Index.RangeSearchWithPoints does. The answer streams, so a box of
// any size is answered; a stream that ends in an error returns no rows.
func (c *Client) Range(ctx context.Context, index string, lo, hi ann.Point) ([]uint64, []ann.Point, error) {
	id, err := c.begin(ctx, wire.OpRange, &wire.RangeReq{Index: index, Lo: lo, Hi: hi}, JoinOptions{})
	if err != nil {
		return nil, nil, err
	}
	st := &JoinStream{c: c, id: id}
	var ids []uint64
	var pts []ann.Point
	for st.Next() {
		ids = append(ids, st.cur.ID)
		pts = append(pts, st.cur.Point)
	}
	if err := st.Err(); err != nil {
		return nil, nil, err
	}
	return ids, pts, nil
}

// ShardMap fetches the shard topology of a routed dataset from an
// annrouter. A plain annserve answers BAD_REQUEST (IsBadRequest). A
// reply that does not decode to a valid map ends the connection.
func (c *Client) ShardMap(ctx context.Context, name string) (wire.ShardMap, error) {
	var m wire.ShardMap
	id, err := c.begin(ctx, wire.OpShardMap, &wire.ShardMapReq{Name: name}, JoinOptions{})
	if err != nil {
		return m, err
	}
	defer c.reqMu.unlock()
	reply, err := c.result(id, wire.OpShardMap)
	if err != nil {
		return m, err
	}
	if err := decodeRecord("shard map", reply.(*wire.ShardMapReply).Map, &m); err != nil {
		return wire.ShardMap{}, c.fail(err)
	}
	if err := m.Validate(); err != nil {
		return wire.ShardMap{}, c.fail(fmt.Errorf("client: invalid shard map: %w", err))
	}
	return m, nil
}

// ClosestPairs returns the k closest (r, s) pairs across two catalog
// indexes (pass the same name twice with excludeSelf for a self-join).
func (c *Client) ClosestPairs(ctx context.Context, r, s string, k int, excludeSelf bool) ([]ann.Pair, error) {
	k32, err := wireK(k)
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(ctx, wire.OpClosestPairs, &wire.PairsReq{R: r, S: s, K: k32, ExcludeSelf: excludeSelf})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PairsReply).Pairs, nil
}

// WithinDistance streams every (r, s) pair within dist to emit,
// returning the total pair count. Pass the same name twice with
// excludeSelf for a self-join.
func (c *Client) WithinDistance(ctx context.Context, r, s string, dist float64, excludeSelf bool, emit func(rID, sID uint64, dist float64) error) (uint64, error) {
	id, err := c.begin(ctx, wire.OpWithinDistance, &wire.WithinReq{R: r, S: s, Dist: dist, ExcludeSelf: excludeSelf}, JoinOptions{})
	if err != nil {
		return 0, err
	}
	defer c.reqMu.unlock()
	var total uint64
	for {
		kind, body, err := c.readReply(id)
		if err != nil {
			return total, err
		}
		switch kind {
		case wire.KindStream:
			for _, p := range body.(*wire.PairFrame).Pairs {
				total++
				if err := emit(p.R, p.S, p.Dist); err != nil {
					// The caller aborted; the connection still carries
					// the rest of the stream, so it must be drained
					// before the next request can use it.
					c.drain(id)
					return total, err
				}
			}
		case wire.KindEnd:
			return total, nil
		default:
			return total, c.fail(fmt.Errorf("client: unexpected frame kind %d in pair stream", kind))
		}
	}
}

// drain consumes frames for request id until its stream terminates,
// keeping the connection usable after an abandoned stream.
func (c *Client) drain(id uint64) {
	for {
		kind, _, err := c.readReply(id)
		if err != nil || kind == wire.KindEnd {
			return
		}
	}
}

// --- streaming joins --------------------------------------------------------

// JoinStream iterates the results of a served ANN/AkNN join as they
// arrive. The owning Client is busy until the stream is exhausted or
// closed.
type JoinStream struct {
	c      *Client
	id     uint64
	buf    []ann.Result
	pos    int
	cur    ann.Result
	count  uint64
	report *QueryReport
	err    error
	done   bool
	closed bool
}

// JoinOptions carries the per-request trace fields of a served join. The
// zero value encodes to the unextended wire frame, the one Join and
// SelfJoin send.
type JoinOptions struct {
	// TraceID labels the request end to end: it appears in the server's
	// structured logs, slow-query entries, /debug/requests rows and the
	// returned report. Up to 128 printable non-space ASCII characters
	// (no quotes or backslashes); the empty string sends no ID.
	TraceID string
	// WantReport asks the server to attach its QueryReport to the end
	// of the stream, retrievable via JoinStream.Report. A router rejects
	// it as BAD_REQUEST: routed joins carry no report.
	WantReport bool
}

// Join starts the AkNN join of r against s server-side (as ann.Join
// with excludeSelf unset) and returns the result stream.
func (c *Client) Join(ctx context.Context, r, s string, k int) (*JoinStream, error) {
	return c.startJoin(ctx, &wire.JoinReq{R: r, S: s}, k, JoinOptions{})
}

// JoinWith is Join with per-request trace fields.
func (c *Client) JoinWith(ctx context.Context, r, s string, k int, opts JoinOptions) (*JoinStream, error) {
	return c.startJoin(ctx, &wire.JoinReq{R: r, S: s}, k, opts)
}

// SelfJoin starts the AkNN self-join of index server-side (as ann.Join
// of index with itself, excludeSelf set) and returns the result stream.
func (c *Client) SelfJoin(ctx context.Context, index string, k int) (*JoinStream, error) {
	return c.startJoin(ctx, &wire.JoinReq{R: index, Self: true}, k, JoinOptions{})
}

// SelfJoinWith is SelfJoin with per-request trace fields.
func (c *Client) SelfJoinWith(ctx context.Context, index string, k int, opts JoinOptions) (*JoinStream, error) {
	return c.startJoin(ctx, &wire.JoinReq{R: index, Self: true}, k, opts)
}

func (c *Client) startJoin(ctx context.Context, req *wire.JoinReq, k int, opts JoinOptions) (*JoinStream, error) {
	var err error
	if req.K, err = wireK(k); err != nil {
		return nil, err
	}
	id, err := c.begin(ctx, wire.OpJoin, req, opts)
	if err != nil {
		return nil, err
	}
	return &JoinStream{c: c, id: id}, nil
}

// Next advances to the next result, reporting false at the end of the
// stream or on error (check Err).
func (st *JoinStream) Next() bool {
	if st.done {
		return false
	}
	for st.pos >= len(st.buf) {
		kind, body, err := st.c.readReply(st.id)
		if err != nil {
			st.finish(err)
			return false
		}
		switch kind {
		case wire.KindStream:
			st.buf = body.(*wire.JoinFrame).Results
			st.pos = 0
		case wire.KindEnd:
			end := body.(*wire.StreamEnd)
			st.count = end.Count
			if end.Report != nil {
				// A report that does not decode is a frame that does not
				// decode: it ends the connection.
				if st.report, err = decodeReport(end.Report); err != nil {
					err = st.c.fail(err)
				}
			}
			st.finish(err)
			return false
		default:
			st.finish(st.c.fail(fmt.Errorf("client: unexpected frame kind %d in join stream", kind)))
			return false
		}
	}
	st.cur = st.buf[st.pos]
	st.pos++
	return true
}

// Result returns the result Next advanced to.
func (st *JoinStream) Result() ann.Result { return st.cur }

// Err returns the terminal error, if any, once Next has returned false.
func (st *JoinStream) Err() error { return st.err }

// Count returns the server-reported total after a clean end of stream.
func (st *JoinStream) Count() uint64 { return st.count }

// Report returns the server's query report after a clean end of stream,
// or nil when the join was started without JoinOptions.WantReport (or
// the stream ended early).
func (st *JoinStream) Report() *QueryReport { return st.report }

// Close releases the connection for the next request, draining any
// remaining frames of an abandoned stream. It is safe to call twice.
func (st *JoinStream) Close() error {
	if st.closed {
		return st.err
	}
	if !st.done {
		st.c.drain(st.id)
		st.done = true
	}
	st.closed = true
	st.c.reqMu.unlock()
	return st.err
}

// finish records the terminal state and releases the connection.
func (st *JoinStream) finish(err error) {
	st.err = err
	st.done = true
	if !st.closed {
		st.closed = true
		st.c.reqMu.unlock()
	}
}

// --- conversions ------------------------------------------------------------

func toIndexInfo(info wire.IndexInfo) IndexInfo {
	return IndexInfo{
		Name:   info.Name,
		Kind:   ann.IndexKind(info.Kind),
		Points: int(info.Points),
		Dim:    int(info.Dim),
	}
}
