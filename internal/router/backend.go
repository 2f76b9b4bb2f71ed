package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"allnn/ann/client"
	"allnn/internal/wire"
)

// backend is one shard's connections to its annserve node: a pool of
// lazily dialled wire clients plus health state. A wire client carries
// one request at a time and the node serves a connection's frames
// strictly in order, so every RPC in flight checks out a connection of
// its own — a kNN never queues behind another request's batch or join
// stream. The pool has no size of its own: the router-wide MaxFanout
// semaphore bounds how many RPCs, hence checked-out connections, exist
// at once, and no more than that many are kept idle.
//
// A backend that fails a transport-level operation is marked down for
// an exponentially growing cool-off (capped), during which RPCs that
// would have to dial fail immediately — one slow dead node must not add
// its full dial timeout to every scatter. Protocol-level errors
// (BAD_REQUEST and friends) prove the node alive and never trip the
// breaker.
type backend struct {
	shardName string
	addr      string
	dial      client.DialConfig
	maxIdle   int

	backoffBase time.Duration
	backoffMax  time.Duration

	mu        sync.Mutex
	idle      []*client.Client            // most recently used last
	out       map[*client.Client]struct{} // checked out by an RPC in flight
	closed    bool
	fails     int
	downUntil time.Time
}

func newBackend(shardName, addr string, cfg Config) *backend {
	return &backend{
		shardName:   shardName,
		addr:        addr,
		dial:        cfg.Dial,
		maxIdle:     cfg.MaxFanout,
		backoffBase: cfg.BackoffBase,
		backoffMax:  cfg.BackoffMax,
		out:         make(map[*client.Client]struct{}),
	}
}

// unavailable is the SHARD_UNAVAILABLE error an RPC fails with when it
// could not reach shard's backend. Any other error from a backend RPC is
// a real answer from a live node and propagates untouched.
func unavailable(shard string, err error) *wire.Error {
	return &wire.Error{Code: wire.CodeShardUnavailable, Msg: fmt.Sprintf("shard %s unavailable: %v", shard, err)}
}

// transientRPC classifies the failure taxonomy the backend retries or
// breaks on: transport errors (dead conn, refused dial, timeout at the
// socket) plus the two wire codes that mean "node alive but not
// serving right now" (SERVER_BUSY, SHUTTING_DOWN). Everything else —
// BAD_REQUEST, NOT_FOUND, engine errors — is an authoritative answer.
func transientRPC(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeServerBusy || we.Code == wire.CodeShuttingDown
	}
	// The caller's own context expiring is not the backend's fault.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure
}

// errPoolClosed refuses a checkout once the router has shut down.
var errPoolClosed = errors.New("router is shutting down")

// checkout hands the caller a connection of its own: the most recently
// used idle one, or a fresh dial. While the breaker is open a dial is
// not attempted and checkout fails immediately with SHARD_UNAVAILABLE.
func (b *backend) checkout(ctx context.Context) (*client.Client, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		cli := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.out[cli] = struct{}{}
		b.mu.Unlock()
		return cli, nil
	}
	var refused error
	if wait := time.Until(b.downUntil); b.closed {
		refused = errPoolClosed
	} else if wait > 0 {
		refused = fmt.Errorf("backend %s cooling off for %v after %d failures", b.addr, wait.Round(time.Millisecond), b.fails)
	}
	b.mu.Unlock()
	if refused != nil {
		return nil, unavailable(b.shardName, refused)
	}

	// Dial outside the lock: a slow dial must not hold up the RPCs that
	// find an idle connection.
	cli, err := client.DialRetry(ctx, b.addr, b.dial)
	if err != nil {
		b.trip()
		return nil, unavailable(b.shardName, err)
	}
	b.mu.Lock()
	closed := b.closed
	if !closed {
		b.out[cli] = struct{}{}
	}
	b.mu.Unlock()
	if closed {
		cli.Close()
		return nil, unavailable(b.shardName, errPoolClosed)
	}
	return cli, nil
}

// checkin returns a connection whose RPC got an answer (a result or an
// authoritative error — either proves the node alive) and resets the
// breaker. A connection beyond the idle bound is closed instead.
func (b *backend) checkin(cli *client.Client) {
	b.mu.Lock()
	delete(b.out, cli)
	b.fails = 0
	b.downUntil = time.Time{}
	keep := !b.closed && len(b.idle) < b.maxIdle
	if keep {
		b.idle = append(b.idle, cli)
	}
	b.mu.Unlock()
	if !keep {
		cli.Close()
	}
}

// discard closes a connection whose RPC failed at the transport level,
// and every idle sibling with it: they point at the same peer, and a
// restarted node has forgotten them all. Connections checked out by
// other RPCs find out for themselves.
func (b *backend) discard(cli *client.Client) {
	b.mu.Lock()
	delete(b.out, cli)
	stale := b.idle
	b.idle = nil
	b.mu.Unlock()
	cli.Close()
	for _, c := range stale {
		c.Close()
	}
}

// trip opens the breaker: cool-off doubles per consecutive failure,
// capped.
func (b *backend) trip() {
	b.mu.Lock()
	b.fails++
	d := b.backoffBase << (b.fails - 1)
	if d > b.backoffMax || d <= 0 {
		d = b.backoffMax
	}
	b.downUntil = time.Now().Add(d)
	b.mu.Unlock()
}

// close tears every connection down, idle and checked out alike, and
// refuses further checkouts (router shutdown). An RPC still reading
// from a checked-out connection fails with a transport error.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	conns := b.idle
	b.idle = nil
	for cli := range b.out {
		conns = append(conns, cli)
	}
	b.mu.Unlock()
	for _, cli := range conns {
		cli.Close()
	}
}

// do runs one RPC against the backend on a connection of its own,
// retrying a transient failure once on a fresh connection (a pooled
// conn whose peer restarted looks exactly like a dead node until
// redialled). A second transient failure trips the breaker and
// fails SHARD_UNAVAILABLE.
func (b *backend) do(ctx context.Context, fn func(*client.Client) error) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cli, err := b.checkout(ctx)
		if err != nil {
			return err
		}
		err = fn(cli)
		if err == nil || !transientRPC(err) {
			b.checkin(cli)
			return err
		}
		b.discard(cli)
		lastErr = err
		if ctx.Err() != nil {
			b.trip()
			return ctx.Err()
		}
	}
	b.trip()
	return unavailable(b.shardName, lastErr)
}
