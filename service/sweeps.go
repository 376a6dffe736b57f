package service

// Sweep coordination: the service side of distributed verification. A
// submitted sweep is planned once (verify.PlanCheck per workload), laid
// out as claimable seed-range batches (verify.SweepState), and then any
// number of worker processes — `blazes sweep-worker` — drive the
// claim/run/report loop over plain HTTP. The coordinator itself runs no
// schedules; it merges reported outcomes in seed order, so the assembled
// reports are byte-identical to a single-process verify.Check of the same
// configuration. When a completed cell observed an anomaly and the sweep
// was submitted with shrink, the coordinator delta-debugs the cell in the
// background to a 1-minimal replayable trace artifact.
//
// Sweeps are in-memory only: they are not journaled, and a restart
// forgets them — a sweep is a computation, not state a client was told
// was durable.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"blazes/strategy"
	"blazes/verify"
)

// sweepClaimTTL is the batch-claim lease duration: a worker that dies
// mid-batch has its claim re-issued to another worker after this long.
const sweepClaimTTL = 30 * time.Second

// maxSweeps bounds retained sweeps; submitting beyond it evicts the
// oldest completed sweep (or sheds with 429 when every slot is active).
const maxSweeps = 64

// sweepJob is one submitted sweep: the per-workload check plans, the
// shared batch ledger, and the shrink/finalize bookkeeping. state has its
// own lock; mu guards everything else.
type sweepJob struct {
	id        string
	shrink    bool
	workloads []string
	plans     []*verify.CheckPlan
	// segStart[i] is the index of plans[i]'s first cell in the combined
	// cell list the ledger was built from.
	segStart []int
	state    *verify.SweepState

	mu             sync.Mutex
	pendingShrinks int
	traces         map[int]*verify.Trace // cell index → shrunk trace
	shrinkErrs     []string
	finished       bool
	failure        string
	holds          bool
	reports        []*verify.Report
}

// SweepSubmitRequest starts a distributed sweep over named workloads (the
// whole built-in suite when empty). Workload names resolve as for
// /v1/verify: the suite by name, plus "generated-<n>c-s<seed>" topologies
// of at most 10,000 components.
type SweepSubmitRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	// Seeds is the schedule count per (mechanism, plan) cell; 0 selects
	// the default (64).
	Seeds int `json:"seeds,omitempty"`
	// Strategy is a comma-separated list of coordination strategies
	// synthesis tries, in order, before the default chain (see
	// blazes/strategy); unknown names are rejected with 400.
	Strategy string `json:"strategy,omitempty"`
	// Shrink delta-debugs every anomalous cell to a 1-minimal replayable
	// trace once the cell completes.
	Shrink bool `json:"shrink,omitempty"`
	// BatchSize is the max seeds per claimable batch; 0 selects 256.
	BatchSize int `json:"batch_size,omitempty"`
}

// SweepBatch is one claimable unit of work on the wire: the seed range
// plus the full cell, so a worker needs nothing but this message (and
// LookupWorkload) to run it.
type SweepBatch struct {
	ID       int         `json:"id"`
	SeedFrom int         `json:"seed_from"`
	SeedTo   int         `json:"seed_to"`
	Cell     verify.Cell `json:"cell"`
}

// SweepClaimRequest leases up to Max batches to Worker.
type SweepClaimRequest struct {
	Worker string `json:"worker,omitempty"`
	Max    int    `json:"max,omitempty"`
}

// SweepClaimResponse carries the leased batches. Empty Batches with Done
// false means every remaining batch is currently leased — poll again.
type SweepClaimResponse struct {
	Batches []SweepBatch `json:"batches"`
	// Done: every batch has been reported; the worker can exit.
	Done bool `json:"done"`
}

// SweepReportRequest reports one batch's outcomes (one per seed of its
// range, in seed order).
type SweepReportRequest struct {
	Batch    *int             `json:"batch"`
	Outcomes []verify.Outcome `json:"outcomes"`
}

// SweepReportResponse acknowledges a report with overall progress.
type SweepReportResponse struct {
	SeedsDone  int `json:"seeds_done"`
	SeedsTotal int `json:"seeds_total"`
	// Done: every batch has been reported (shrinking may still be
	// running; poll the status endpoint for the final report).
	Done bool `json:"done"`
}

// SweepStatus is the status document for one sweep. Holds, Reports and
// Traces appear once State is "complete".
type SweepStatus struct {
	Sweep          string   `json:"sweep"`
	State          string   `json:"state"` // running | shrinking | complete
	Workloads      []string `json:"workloads"`
	Cells          int      `json:"cells"`
	Batches        int      `json:"batches"`
	SeedsDone      int      `json:"seeds_done"`
	SeedsTotal     int      `json:"seeds_total"`
	Shrink         bool     `json:"shrink,omitempty"`
	PendingShrinks int      `json:"pending_shrinks,omitempty"`

	Holds   *bool            `json:"holds,omitempty"`
	Reports []*verify.Report `json:"reports,omitempty"`
	Traces  []*verify.Trace  `json:"traces,omitempty"`
	// ShrinkErrors lists cells whose shrink failed (the sweep still
	// completes; the anomaly is in the cell's report either way).
	ShrinkErrors []string `json:"shrink_errors,omitempty"`
	// Error marks a sweep that could not be finalized.
	Error string `json:"error,omitempty"`
}

// SweepListResponse is the sweep index.
type SweepListResponse struct {
	Sweeps []SweepStatus `json:"sweeps"`
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepSubmitRequest
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	if req.Seeds < 0 {
		writeError(w, http.StatusBadRequest, "seeds must be non-negative")
		return
	}
	if req.BatchSize < 0 {
		writeError(w, http.StatusBadRequest, "batch_size must be non-negative")
		return
	}
	prefer, err := strategy.Parse(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	selected, err := lookupWorkloads(req.Workloads)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	job := &sweepJob{shrink: req.Shrink, traces: map[int]*verify.Trace{}}
	opts := verify.Options{Seeds: req.Seeds, Prefer: prefer}
	var cells []verify.Cell
	for _, wl := range selected {
		plan, err := verify.PlanCheck(wl, opts)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "plan %s: %v", wl.Name(), err)
			return
		}
		job.workloads = append(job.workloads, wl.Name())
		job.segStart = append(job.segStart, len(cells))
		job.plans = append(job.plans, plan)
		cells = append(cells, plan.Cells...)
	}
	job.state = verify.NewSweepState(cells, req.BatchSize, sweepClaimTTL.Milliseconds())

	s.sweepMu.Lock()
	if len(s.sweeps) >= maxSweeps {
		evicted := false
		for i, id := range s.sweepOrder {
			j := s.sweeps[id]
			j.mu.Lock()
			done := j.finished
			j.mu.Unlock()
			if done {
				delete(s.sweeps, id)
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			s.sweepMu.Unlock()
			writeError(w, http.StatusTooManyRequests, "too many active sweeps (%d); wait for one to complete", maxSweeps)
			return
		}
	}
	s.nextSweepID++
	job.id = fmt.Sprintf("sw%d", s.nextSweepID)
	s.sweeps[job.id] = job
	s.sweepOrder = append(s.sweepOrder, job.id)
	s.sweepMu.Unlock()

	s.sweepsSubmitted.Add(1)
	writeJSON(w, http.StatusCreated, job.status())
}

// sweepByID resolves a sweep or writes the 404.
func (s *Server) sweepByID(w http.ResponseWriter, id string) (*sweepJob, bool) {
	s.sweepMu.Lock()
	job, ok := s.sweeps[id]
	s.sweepMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
	}
	return job, ok
}

func (s *Server) handleSweepClaim(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r.PathValue("id"))
	if !ok {
		return
	}
	var req SweepClaimRequest
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	worker := req.Worker
	if worker == "" {
		worker = r.RemoteAddr
	}
	claimed := job.state.Claim(time.Now().UnixMilli(), worker, req.Max)
	s.sweepBatchesClaimed.Add(uint64(len(claimed)))
	resp := SweepClaimResponse{Batches: []SweepBatch{}, Done: job.state.Done()}
	cells := job.state.Cells()
	for _, b := range claimed {
		resp.Batches = append(resp.Batches, SweepBatch{ID: b.ID, SeedFrom: b.SeedFrom, SeedTo: b.SeedTo, Cell: cells[b.Cell]})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweepReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r.PathValue("id"))
	if !ok {
		return
	}
	var req SweepReportRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Batch == nil {
		writeError(w, http.StatusBadRequest, "batch is required")
		return
	}
	cellDone, err := job.state.Report(*req.Batch, req.Outcomes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.sweepBatchesReported.Add(1)

	job.mu.Lock()
	if cellDone >= 0 && job.shrink && !job.finished {
		cell := job.state.Cells()[cellDone]
		if outs, err := job.state.CellOutcomes(cellDone); err == nil && verify.FoldCell(cell, outs).Observed.Any() {
			job.pendingShrinks++
			go s.shrinkSweepCell(job, cellDone, cell, outs)
		}
	}
	s.finalizeSweepLocked(job)
	job.mu.Unlock()

	done, total := job.state.Progress()
	writeJSON(w, http.StatusOK, SweepReportResponse{SeedsDone: done, SeedsTotal: total, Done: job.state.Done()})
}

// shrinkSweepCell delta-debugs one anomalous completed cell in the
// background; the sweep finalizes once every pending shrink lands.
func (s *Server) shrinkSweepCell(job *sweepJob, cellIdx int, cell verify.Cell, outcomes []verify.Outcome) {
	wl, err := verify.LookupWorkload(cell.Workload)
	var tr *verify.Trace
	if err == nil {
		tr, err = verify.ShrinkCell(context.Background(), wl, cell, outcomes)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	job.pendingShrinks--
	if err != nil {
		job.shrinkErrs = append(job.shrinkErrs, fmt.Sprintf("cell %d (%s under %s/%s): %v",
			cellIdx, cell.Workload, cell.Mechanism, cell.Plan.Name, err))
	} else {
		job.traces[cellIdx] = tr
		s.sweepTracesShrunk.Add(1)
	}
	s.finalizeSweepLocked(job)
}

// finalizeSweepLocked assembles the final reports once every batch is
// reported and every background shrink has landed. Caller holds job.mu.
func (s *Server) finalizeSweepLocked(job *sweepJob) {
	if job.finished || job.pendingShrinks > 0 || !job.state.Done() {
		return
	}
	job.finished = true
	sort.Strings(job.shrinkErrs)
	sweeps, err := job.state.Sweeps()
	if err != nil {
		job.failure = err.Error()
		s.sweepsCompleted.Add(1)
		return
	}
	holds := true
	for pi, plan := range job.plans {
		seg := sweeps[job.segStart[pi] : job.segStart[pi]+len(plan.Cells)]
		rep, err := plan.Assemble(seg)
		if err != nil {
			job.failure = err.Error()
			s.sweepsCompleted.Add(1)
			return
		}
		job.reports = append(job.reports, rep)
		holds = holds && rep.Holds
	}
	job.holds = holds
	s.sweepsCompleted.Add(1)
}

// status snapshots the sweep for the wire.
func (j *sweepJob) status() SweepStatus {
	done, total := j.state.Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		Sweep:          j.id,
		Workloads:      j.workloads,
		Cells:          len(j.state.Cells()),
		Batches:        j.state.Batches(),
		SeedsDone:      done,
		SeedsTotal:     total,
		Shrink:         j.shrink,
		PendingShrinks: j.pendingShrinks,
	}
	switch {
	case j.finished:
		st.State = "complete"
		st.Error = j.failure
		if j.failure == "" {
			holds := j.holds
			st.Holds = &holds
			st.Reports = j.reports
		}
		st.ShrinkErrors = j.shrinkErrs
		cellIdxs := make([]int, 0, len(j.traces))
		for c := range j.traces {
			cellIdxs = append(cellIdxs, c)
		}
		sort.Ints(cellIdxs)
		for _, c := range cellIdxs {
			st.Traces = append(st.Traces, j.traces[c])
		}
	case j.state.Done():
		st.State = "shrinking"
	default:
		st.State = "running"
	}
	return st
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.sweepMu.Lock()
	jobs := make([]*sweepJob, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		jobs = append(jobs, s.sweeps[id])
	}
	s.sweepMu.Unlock()
	resp := SweepListResponse{Sweeps: []SweepStatus{}}
	for _, j := range jobs {
		st := j.status()
		// The index stays light: reports and traces are status-endpoint
		// payloads.
		st.Reports, st.Traces = nil, nil
		resp.Sweeps = append(resp.Sweeps, st)
	}
	writeJSON(w, http.StatusOK, resp)
}
