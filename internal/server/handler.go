package server

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"time"

	"allnn/ann"
	"allnn/internal/storage"
	"allnn/internal/wire"
)

// dispatch executes one decoded request and writes its response
// frame(s). A returned error means no terminal frame was written yet;
// the service turns it into KindError.
func (s *Server) dispatch(ctx context.Context, rc *reqCtx, hdr wire.RequestHeader, body wire.Message, w *wire.ResponseWriter) error {
	if s.testHook != nil {
		s.testHook(hdr)
	}

	// Reports ride a stream's terminating StreamEnd, which only joins
	// produce; asking for one anywhere else is malformed.
	if hdr.WantReport && hdr.Op != wire.OpJoin {
		return wire.BadRequest("WantReport is only valid for %s, not %s", wire.OpJoin, hdr.Op)
	}

	switch req := body.(type) {
	case *wire.OpenReq:
		return s.handleOpen(req, w)
	case *wire.CloseReq:
		return s.handleClose(req, w)
	case *wire.ListReq:
		return w.Send(wire.KindResult, &wire.ListReply{Indexes: s.catalog.List()})
	case *wire.StatsReq:
		return s.handleStats(req, w)
	case *wire.KNNReq:
		return s.withSlot(ctx, rc, func() error { return s.handleKNN(ctx, req, w) })
	case *wire.BatchKNNReq:
		return s.withSlot(ctx, rc, func() error { return s.handleBatchKNN(ctx, req, w) })
	case *wire.RangeReq:
		return s.withSlot(ctx, rc, func() error { return s.handleRange(ctx, req, w) })
	case *wire.JoinReq:
		return s.withSlot(ctx, rc, func() error { return s.handleJoin(ctx, rc, hdr, req, w) })
	case *wire.WithinReq:
		return s.withSlot(ctx, rc, func() error { return s.handleWithin(ctx, req, w) })
	case *wire.PairsReq:
		return s.withSlot(ctx, rc, func() error { return s.handlePairs(ctx, req, w) })
	case *wire.InsertReq:
		return s.withSlot(ctx, rc, func() error { return s.handleInsert(req, w) })
	case *wire.DeleteReq:
		return s.withSlot(ctx, rc, func() error { return s.handleDelete(req, w) })
	default:
		return wire.BadRequest("unhandled request type %T", body)
	}
}

// withSlot runs fn under the query admission controller, accounting
// the time spent queued to rc. Catalog ops bypass it — only engine
// work is bounded.
func (s *Server) withSlot(ctx context.Context, rc *reqCtx, fn func() error) error {
	rc.stage.Store(stageQueued)
	waitStart := time.Now()
	err := s.admit.acquire(ctx)
	rc.admissionWaitNs.Store(time.Since(waitStart).Nanoseconds())
	if err != nil {
		return err
	}
	rc.stage.Store(stageRunning)
	defer s.admit.release()
	// The deadline may have expired while queued.
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn()
}

// --- catalog ops ------------------------------------------------------------

func (s *Server) handleOpen(req *wire.OpenReq, w *wire.ResponseWriter) error {
	ix, err := s.catalog.Open(req.Name, req.Path, ann.IndexConfig{
		BufferPoolBytes: s.cfg.IndexBufferBytes,
	})
	if err != nil {
		switch {
		case errors.Is(err, storage.ErrCorruptPage):
			return &wire.Error{Code: wire.CodeCorruptIndex, Msg: err.Error()}
		case errors.Is(err, fs.ErrNotExist):
			return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
		default:
			return wire.BadRequest("%v", err)
		}
	}
	return w.Send(wire.KindResult, &wire.OpenReply{Info: wire.IndexInfo{
		Name:   req.Name,
		Kind:   uint8(ix.Kind()),
		Points: uint64(ix.Len()),
		Dim:    uint32(ix.Dim()),
	}})
}

func (s *Server) handleClose(req *wire.CloseReq, w *wire.ResponseWriter) error {
	if err := s.catalog.Close(req.Name); err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.CloseReply{})
}

func (s *Server) handleStats(req *wire.StatsReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Name)
	if err != nil {
		return err
	}
	defer e.release()
	st, err := json.Marshal(ix.Stats())
	if err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.StatsReply{Stats: st})
}

// --- mutations --------------------------------------------------------------

// The catalog entry's read lock is enough for a mutation: it only
// excludes Close, while ann.Index's own write lock serialises writers
// against each other (queries need no exclusion at all — they run on
// the snapshot published by the last completed batch).

func (s *Server) handleInsert(req *wire.InsertReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Index)
	if err != nil {
		return err
	}
	defer e.release()
	if err := ix.InsertBatch(req.IDs, req.Points); err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.InsertReply{
		Inserted: uint64(len(req.IDs)),
		Size:     uint64(ix.Len()),
	})
}

func (s *Server) handleDelete(req *wire.DeleteReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Index)
	if err != nil {
		return err
	}
	defer e.release()
	found, err := ix.DeleteBatch(req.IDs, req.Points)
	if err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.DeleteReply{
		Found: uint64(found),
		Size:  uint64(ix.Len()),
	})
}

// --- point and box queries --------------------------------------------------

func (s *Server) handleKNN(ctx context.Context, req *wire.KNNReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Index)
	if err != nil {
		return err
	}
	defer e.release()
	if err := ctx.Err(); err != nil {
		return err
	}
	nbs, err := ix.NearestNeighbors(req.Point, int(req.K))
	if err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.KNNReply{Neighbors: nbs})
}

func (s *Server) handleBatchKNN(ctx context.Context, req *wire.BatchKNNReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Index)
	if err != nil {
		return err
	}
	defer e.release()
	// Refuse a batch whose reply could not be framed before computing it.
	// The same bound caps the arrays the batch allocates up front.
	if err := wire.CheckBatchReply(len(req.Points), ix.Dim(), int64(req.K), int64(ix.Len())); err != nil {
		return err
	}
	// The whole batch is one query on one snapshot; the deadline is
	// checked between probes, so a huge batch cannot overstay.
	nbs, err := ix.BatchNearestNeighbors(ctx, req.Points, int(req.K))
	if err != nil {
		return err
	}
	results := make([]wire.Result, len(req.Points))
	for i, p := range req.Points {
		results[i] = wire.Result{ID: uint64(i), Point: p, Neighbors: nbs[i]}
	}
	return w.Send(wire.KindResult, &wire.BatchKNNReply{Results: results})
}

// handleRange streams the box's points, in the index's traversal order,
// as join rows without neighbors.
func (s *Server) handleRange(ctx context.Context, req *wire.RangeReq, w *wire.ResponseWriter) error {
	e, ix, err := s.catalog.acquire(req.Index)
	if err != nil {
		return err
	}
	defer e.release()
	if err := ctx.Err(); err != nil {
		return err
	}
	ids, pts, err := ix.RangeSearchWithPoints(req.Lo, req.Hi)
	if err != nil {
		return err
	}
	frames := wire.NewBatcher[wire.Result](w)
	for i, id := range ids {
		if err := frames.Add(wire.Result{ID: id, Point: pts[i]}); err != nil {
			return err
		}
	}
	return frames.End()
}

// --- join ops ---------------------------------------------------------------

// acquirePair read-locks the R and S indexes of a two-index op and
// refuses a pair whose dimensions differ. When both names are equal the
// entry is locked once — acquiring the same RWMutex twice from one
// goroutine can deadlock against a pending Close.
func (s *Server) acquirePair(rName, sName string) (rix, six *ann.Index, release func(), err error) {
	re, rix, err := s.catalog.acquire(rName)
	if err != nil {
		return nil, nil, nil, err
	}
	if sName == rName {
		return rix, rix, re.release, nil
	}
	se, six, err := s.catalog.acquire(sName)
	if err != nil {
		re.release()
		return nil, nil, nil, err
	}
	if rix.Dim() != six.Dim() {
		se.release()
		re.release()
		return nil, nil, nil, wire.BadRequest("indexes %q (dim %d) and %q (dim %d) do not join", rName, rix.Dim(), sName, six.Dim())
	}
	return rix, six, func() { se.release(); re.release() }, nil
}

// queryConfig is the QueryConfig served joins run under: ordered emit
// (so served results are byte-identical to direct library calls), the
// full QueryReport captured into rc (for wire reports and the
// slow-query log), and, when the server has a registry, engine counters
// folded into it.
func (s *Server) queryConfig(rc *reqCtx) ann.QueryConfig {
	var cfg ann.QueryConfig
	metrics := s.cfg.Metrics
	cfg.OnReport = func(rep ann.QueryReport) {
		if metrics != nil {
			rep.Engine.AddTo(metrics)
		}
		rc.report = &rep
	}
	return cfg
}

func (s *Server) handleJoin(ctx context.Context, rc *reqCtx, hdr wire.RequestHeader, req *wire.JoinReq, w *wire.ResponseWriter) error {
	sName := req.S
	if req.Self {
		sName = req.R
	}
	rix, six, release, err := s.acquirePair(req.R, sName)
	if err != nil {
		return err
	}
	defer release()
	if err := wire.CheckJoinRow(six.Dim(), int64(req.K), int64(six.Len())); err != nil {
		return err
	}

	frames := wire.NewBatcher[wire.Result](w)
	cfg := s.queryConfig(rc)
	// Engine time excludes the frame flushes the emit callback triggers
	// mid-run, keeping the report's engine/flush split disjoint.
	flushBefore := w.FlushNs
	engineStart := time.Now()
	err = ann.Join(ctx, rix, six, int(req.K), req.Self, cfg, frames.Add)
	rc.engineNs = time.Since(engineStart).Nanoseconds() - (w.FlushNs - flushBefore)
	if err != nil {
		return err
	}
	if err := frames.Flush(); err != nil {
		return err
	}
	end := &wire.StreamEnd{Count: frames.Count}
	if hdr.WantReport {
		if end.Report, err = rc.reportJSON(w); err != nil {
			return err
		}
	}
	return w.Send(wire.KindEnd, end)
}

func (s *Server) handleWithin(ctx context.Context, req *wire.WithinReq, w *wire.ResponseWriter) error {
	rix, six, release, err := s.acquirePair(req.R, req.S)
	if err != nil {
		return err
	}
	defer release()

	frames := wire.NewBatcher[wire.Pair](w)
	err = ann.WithinDistanceContext(ctx, rix, six, req.Dist, req.ExcludeSelf, func(rID, sID uint64, dist float64) error {
		return frames.Add(wire.Pair{R: rID, S: sID, Dist: dist})
	})
	if err != nil {
		return err
	}
	return frames.End()
}

func (s *Server) handlePairs(ctx context.Context, req *wire.PairsReq, w *wire.ResponseWriter) error {
	rix, six, release, err := s.acquirePair(req.R, req.S)
	if err != nil {
		return err
	}
	defer release()
	pairs, err := ann.ClosestPairsContext(ctx, rix, six, int(req.K), req.ExcludeSelf)
	if err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.PairsReply{Pairs: pairs})
}
