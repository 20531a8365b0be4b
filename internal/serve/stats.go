package serve

// Per-request statement-statistics plumbing: the middleware hook that
// folds each finished request into the qstats digest table, and the
// GET /v1/stats/queries endpoint that exposes the table.

import (
	"sort"
	"strconv"
	"time"

	"xpdl/internal/obs/qstats"
)

func protoName(bin bool) string {
	if bin {
		return "bin"
	}
	return "json"
}

// recordStats folds one finished request into the digest table. The
// generation is the one of the snapshot the handler answered from, so
// stats survive hot swaps and still name the generation that answered
// last.
func (s *Server) recordStats(q *request, name string, status int, respBytes int64,
	traceID string, dur time.Duration, ans any, allocs int64) {
	gen := int64(0)
	if q.snap != nil {
		gen = int64(q.snap.Gen)
	}
	s.qstats.Record(qstats.Key{
		Endpoint:  name,
		Model:     q.r.PathValue("model"),
		Shape:     q.shape.text,
		ShapeHash: q.shape.hash,
		Proto:     protoName(q.bin),
	}, qstats.Sample{
		Latency:    dur,
		Rows:       rowsOf(ans),
		ReqBytes:   max(q.r.ContentLength, 0),
		RespBytes:  respBytes,
		Err:        status >= 400,
		Generation: gen,
		TraceID:    traceID,
		Allocs:     allocs,
	})
}

// rowsOf derives the "rows returned" figure from a handler answer.
func rowsOf(ans any) int64 {
	switch p := ans.(type) {
	case *SelectResponse:
		return int64(p.Count)
	case *EvalResponse:
		return 1
	case *BatchResponse:
		return int64(len(p.Results))
	case *ModelsResponse:
		return int64(len(p.Models))
	case *JobsResponse:
		return int64(len(p.Jobs))
	}
	return 0
}

// statSortKeys names the orderings ?sort= accepts.
var statSortKeys = map[string]func(a, b *QueryStatRow) bool{
	"calls":   func(a, b *QueryStatRow) bool { return a.Calls > b.Calls },
	"latency": func(a, b *QueryStatRow) bool { return a.LatencySumS > b.LatencySumS },
	"p99":     func(a, b *QueryStatRow) bool { return a.P99S > b.P99S },
	"bytes": func(a, b *QueryStatRow) bool {
		return a.ReqBytes+a.RespBytes > b.ReqBytes+b.RespBytes
	},
	"errors": func(a, b *QueryStatRow) bool { return a.Errors > b.Errors },
	"rows":   func(a, b *QueryStatRow) bool { return a.Rows > b.Rows },
	"recent": func(a, b *QueryStatRow) bool { return a.LastSeen.After(b.LastSeen) },
}

// handleQueryStats serves the digest table: sortable (?sort=),
// limitable (?limit=) and filterable by model (?model=). The endpoint
// itself is excluded from recording, so polling it never perturbs
// what it measures.
func (s *Server) handleQueryStats(q *request) (any, error) {
	if s.qstats == nil {
		return nil, notFound("query statistics disabled (Config.QueryStatsOff)")
	}
	v := q.r.URL.Query()
	sortKey := v.Get("sort")
	if sortKey == "" {
		sortKey = "calls"
	}
	less, ok := statSortKeys[sortKey]
	if !ok {
		return nil, badRequest("unknown sort %q (want calls, latency, p99, bytes, errors, rows or recent)", sortKey)
	}
	limit := 0
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, badRequest("limit must be a non-negative integer")
		}
		limit = n
	}
	model := v.Get("model")

	rows := s.qstats.Rows()
	out := make([]QueryStatRow, 0, len(rows))
	for i := range rows {
		if model != "" && rows[i].Model != model {
			continue
		}
		out = append(out, statRowOf(&rows[i]))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		// Deterministic tiebreak so identical runs render identically.
		if a.Endpoint != b.Endpoint {
			return a.Endpoint < b.Endpoint
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Proto < b.Proto
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}

	resp := QueryStatsResponse{
		BucketBounds: s.qstats.BucketBounds(),
		Digests:      s.qstats.Len(),
		Recorded:     s.qstats.Recorded(),
		Evicted:      s.qstats.Evicted(),
		Rows:         out,
		Slow:         []SlowQueryJSON{},
	}
	for _, e := range s.qstats.Slowest() {
		if model != "" && e.Model != model {
			continue
		}
		resp.Slow = append(resp.Slow, SlowQueryJSON{
			LatencyMS: float64(e.LatencyNS) / 1e6,
			Endpoint:  e.Endpoint,
			Model:     e.Model,
			Shape:     e.Shape,
			Proto:     e.Proto,
			TraceID:   e.TraceID,
			Error:     e.Err,
			At:        time.Unix(0, e.AtNS).UTC(),
		})
	}
	return &resp, nil
}

func statRowOf(r *qstats.Row) QueryStatRow {
	return QueryStatRow{
		Endpoint:     r.Endpoint,
		Model:        r.Model,
		Shape:        r.Shape,
		Proto:        r.Proto,
		Calls:        r.Calls,
		Errors:       r.Errors,
		Rows:         r.Rows,
		ReqBytes:     r.ReqBytes,
		RespBytes:    r.RespBytes,
		LatencySumS:  r.LatencySum,
		P50S:         r.P50,
		P99S:         r.P99,
		BucketCounts: r.BucketCounts,
		AllocSamples: r.AllocSamples,
		AllocObjects: r.AllocObjects,
		LastGen:      r.LastGen,
		FirstSeen:    r.FirstSeen.UTC(),
		LastSeen:     r.LastSeen.UTC(),
	}
}
