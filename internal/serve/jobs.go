package serve

// Async sweep jobs: POST /v1/models/{model}/sweep enqueues a scenario
// sweep and answers immediately with a job ID; GET /v1/jobs/{id} polls
// it and GET /v1/jobs/{id}/stream follows per-point progress over the
// same SSE transport as the model watch. Jobs run on a small worker
// pool against the store's descriptor repository, are cancelable, and
// terminal jobs linger for a TTL so results can be fetched after the
// fact.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"xpdl/internal/obs"
	"xpdl/internal/obs/qstats"
	"xpdl/internal/repo"
	"xpdl/internal/scenario"
)

// Job metrics in the process-wide registry.
var (
	mJobsSubmitted = obs.Default().Counter("xpdl_jobs_submitted_total",
		"Sweep jobs accepted into the queue.")
	mJobsRejected = obs.Default().Counter("xpdl_jobs_rejected_total",
		"Sweep jobs rejected because the queue or the retention table was full.")
	mJobsCompleted = obs.Default().Counter("xpdl_jobs_completed_total",
		"Sweep jobs that ran to completion.")
	mJobsFailed = obs.Default().Counter("xpdl_jobs_failed_total",
		"Sweep jobs that ended in an error.")
	mJobsCanceled = obs.Default().Counter("xpdl_jobs_canceled_total",
		"Sweep jobs canceled before completion.")
	gJobsActive = obs.Default().Gauge("xpdl_jobs_active",
		"Sweep jobs currently executing.")
	gJobsQueued = obs.Default().Gauge("xpdl_jobs_queued",
		"Sweep jobs waiting for a worker.")
)

// Job states.
const (
	JobStateQueued   = "queued"
	JobStateRunning  = "running"
	JobStateDone     = "done"
	JobStateFailed   = "failed"
	JobStateCanceled = "canceled"
)

// jobTerminal reports whether state is final.
func jobTerminal(state string) bool {
	return state == JobStateDone || state == JobStateFailed || state == JobStateCanceled
}

// JobEvent is one frame of a job's progress stream: a "point" per
// evaluated grid point, then exactly one terminal "done" / "failed" /
// "canceled" event.
type JobEvent struct {
	Job   string                `json:"job"`
	Seq   uint64                `json:"seq"`
	Type  string                `json:"type"`
	Point *scenario.PointResult `json:"point,omitempty"`
	Done  int                   `json:"done"`
	Total int                   `json:"total"`
	Error string                `json:"error,omitempty"`
}

// JobInfo is the polling view of one job.
type JobInfo struct {
	ID       string           `json:"id"`
	Model    string           `json:"model"`
	State    string           `json:"state"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Error    string           `json:"error,omitempty"`
	Total    int              `json:"total"`
	Done     int              `json:"done"`
	Result   *scenario.Result `json:"result,omitempty"`
}

// JobsResponse lists jobs, newest first.
type JobsResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// SweepAccepted answers a sweep submission.
type SweepAccepted struct {
	Job   string `json:"job"`
	Model string `json:"model"`
	State string `json:"state"`
	Total int    `json:"total"`
}

// repoProvider is the extra loader capability sweeps need: access to
// the descriptor repository (ToolchainLoader has it; the sweep
// endpoints answer 501 when the configured loader does not).
type repoProvider interface {
	Repo() *repo.Repository
}

// jobStreamBuffer is the queue depth of every job stream subscriber.
const jobStreamBuffer = 256

// job is one queued/running/retained sweep.
type job struct {
	id      string
	seq     uint64 // creation order within its manager
	model   string
	spec    *scenario.Spec
	created time.Time

	ctx    context.Context
	cancel context.CancelFunc

	// log keeps the job's full event history, so a stream that
	// reconnects with its last sequence number resumes losslessly.
	log *eventLog[JobEvent]

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	errMsg   string
	total    int
	done     int
	result   *scenario.Result
}

// publishLocked stamps one event with the job's progress and appends
// it to the log; j.mu is held, so events carry monotonic Done counts.
func (j *job) publishLocked(ev JobEvent) {
	ev.Job = j.id
	ev.Done = j.done
	ev.Total = j.total
	j.log.publish(ev)
}

func (ev JobEvent) withSeq(seq uint64) JobEvent {
	ev.Seq = seq
	return ev
}

func (ev JobEvent) sseFrame() (string, uint64) { return ev.Type, ev.Seq }

// point records one engine point callback.
func (j *job) point(p scenario.PointResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	q := p
	j.publishLocked(JobEvent{Type: "point", Point: &q})
}

// finish transitions the job to a terminal state exactly once and
// publishes the terminal event.
func (j *job) finish(state, errMsg string, res *scenario.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if jobTerminal(j.state) {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.result = res
	j.finished = time.Now()
	typ := map[string]string{JobStateDone: "done", JobStateFailed: "failed", JobStateCanceled: "canceled"}[state]
	j.publishLocked(JobEvent{Type: typ, Error: errMsg})
	j.log.close()
	switch state {
	case JobStateDone:
		mJobsCompleted.Inc()
	case JobStateFailed:
		mJobsFailed.Inc()
	case JobStateCanceled:
		mJobsCanceled.Inc()
	}
}

// info renders the polling view. The result's per-point list is heavy
// (up to the server's point cap), so it is stripped unless withPoints.
func (j *job) info(withPoints bool) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobInfo{
		ID: j.id, Model: j.model, State: j.state, Created: j.created,
		Error: j.errMsg, Total: j.total, Done: j.done,
	}
	if !j.started.IsZero() {
		t := j.started
		out.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.Finished = &t
	}
	if j.result != nil {
		r := *j.result
		if !withPoints {
			r.Points = nil
		}
		out.Result = &r
	}
	return out
}

// jobManager owns the queue, the worker pool and the retention table.
type jobManager struct {
	provider  repoProvider
	workers   int // engine parallelism per job
	maxPoints int // server-side cap clamped into every spec
	ttl       time.Duration
	maxJobs   int
	stats     *qstats.Table // owning server's digest table; nil-safe

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup

	// tag makes this manager's job IDs unique across a cluster, so a
	// routing tier can look a job up on every member.
	tag string

	mu   sync.Mutex
	seq  uint64
	jobs map[string]*job
}

func newJobManager(provider repoProvider, cfg Config) *jobManager {
	if cfg.JobQueue <= 0 {
		cfg.JobQueue = 16
	}
	if cfg.JobConcurrency <= 0 {
		cfg.JobConcurrency = 2
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	if cfg.SweepMaxPoints <= 0 {
		cfg.SweepMaxPoints = scenario.DefaultMaxPoints
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		provider:  provider,
		workers:   cfg.SweepWorkers,
		maxPoints: cfg.SweepMaxPoints,
		ttl:       cfg.JobTTL,
		maxJobs:   cfg.MaxJobs,
		baseCtx:   ctx,
		stop:      cancel,
		queue:     make(chan *job, cfg.JobQueue),
		tag:       fmt.Sprintf("%08x", rand.Uint32()),
		jobs:      map[string]*job{},
	}
	for i := 0; i < cfg.JobConcurrency; i++ {
		m.wg.Add(1)
		go m.runLoop()
	}
	return m
}

// submit validates, clamps and enqueues one sweep.
func (m *jobManager) submit(model string, spec *scenario.Spec) (*job, error) {
	if spec.MaxPoints <= 0 || spec.MaxPoints > m.maxPoints {
		spec.MaxPoints = m.maxPoints
	}
	if err := spec.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	total, err := spec.Total()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if spec.Sample > 0 && spec.Sample < total {
		total = spec.Sample
	}

	m.mu.Lock()
	m.pruneLocked(time.Now())
	if len(m.jobs) >= m.maxJobs {
		m.mu.Unlock()
		mJobsRejected.Inc()
		return nil, &apiError{status: 429, msg: fmt.Sprintf("job table full (%d jobs retained); retry later", m.maxJobs)}
	}
	m.seq++
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &job{
		id:      "job-" + m.tag + "-" + strconv.FormatUint(m.seq, 10),
		seq:     m.seq,
		model:   model,
		spec:    spec,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		log:     newEventLog[JobEvent](0, nil),
		state:   JobStateQueued,
		total:   total,
	}
	m.jobs[j.id] = j
	m.mu.Unlock()

	select {
	case m.queue <- j:
		gJobsQueued.Add(1)
		mJobsSubmitted.Inc()
		return j, nil
	default:
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.mu.Unlock()
		cancel()
		mJobsRejected.Inc()
		return nil, &apiError{status: 429, msg: "sweep queue full; retry later"}
	}
}

// get returns a job by ID.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every retained job, newest first.
func (m *jobManager) list() []JobInfo {
	m.mu.Lock()
	m.pruneLocked(time.Now())
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq > jobs[b].seq })
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info(false)
	}
	return out
}

// cancelJob cancels a queued or running job.
func (m *jobManager) cancelJob(id string) (JobInfo, error) {
	j, ok := m.get(id)
	if !ok {
		return JobInfo{}, notFound("job %q not found", id)
	}
	j.cancel()
	// A queued job never reaches a runner transition, so finish it here;
	// a running one is finished by its runner when the engine returns.
	j.mu.Lock()
	queued := j.state == JobStateQueued
	j.mu.Unlock()
	if queued {
		j.finish(JobStateCanceled, "canceled before start", nil)
	}
	return j.info(false), nil
}

// pruneLocked drops terminal jobs past their TTL; m.mu is held.
func (m *jobManager) pruneLocked(now time.Time) {
	for id, j := range m.jobs {
		j.mu.Lock()
		stale := jobTerminal(j.state) && !j.finished.IsZero() && now.Sub(j.finished) > m.ttl
		j.mu.Unlock()
		if stale {
			delete(m.jobs, id)
		}
	}
}

func (m *jobManager) runLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case j := <-m.queue:
			gJobsQueued.Add(-1)
			m.runJob(j)
		}
	}
}

func (m *jobManager) runJob(j *job) {
	j.mu.Lock()
	if j.state != JobStateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.state = JobStateRunning
	j.started = time.Now()
	j.mu.Unlock()
	gJobsActive.Add(1)
	defer gJobsActive.Add(-1)

	eng := &scenario.Engine{
		Repo:    m.provider.Repo(),
		Workers: m.workers,
		OnPoint: j.point,
	}
	runStart := time.Now()
	res, err := eng.Run(j.ctx, j.model, j.spec)
	runDur := time.Since(runStart)
	switch {
	case err == nil:
		j.finish(JobStateDone, "", res)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		j.finish(JobStateCanceled, "canceled", nil)
	default:
		j.finish(JobStateFailed, err.Error(), nil)
	}
	j.cancel() // release the context's resources

	// Each sweep run is one digest sample: rows = points evaluated, so
	// batch cost shows up next to the per-request endpoints in qstats.
	j.mu.Lock()
	points := j.done
	failed := j.state == JobStateFailed
	j.mu.Unlock()
	m.stats.Record(qstats.Key{Endpoint: "sweep.run", Model: j.model, Proto: "json"},
		qstats.Sample{Latency: runDur, Rows: int64(points), Err: failed, Allocs: -1})
}

// close drains the subsystem: cancel every job context, wait for the
// runners, then mark still-pending jobs canceled so poll and stream
// clients observe a terminal state.
func (m *jobManager) close() {
	m.stop()
	m.wg.Wait()
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.finish(JobStateCanceled, "server shutting down", nil)
	}
	// Drain queued entries so their gauge balances.
	for {
		select {
		case <-m.queue:
			gJobsQueued.Add(-1)
		default:
			return
		}
	}
}
