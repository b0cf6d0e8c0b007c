package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"accmulti/internal/cliutil"
	"accmulti/internal/core"
	"accmulti/internal/diag"
	"accmulti/internal/rt"
	"accmulti/internal/trace"
)

// Config sizes the service.
type Config struct {
	// CacheEntries caps the program cache (default 256).
	CacheEntries int
	// Concurrency is the number of run slots — the machine-pool bound
	// (default GOMAXPROCS).
	Concurrency int
	// QueueDepth bounds the admission queue; requests beyond it get
	// 429 (default 1024; negative = no queueing at all).
	QueueDepth int
	// MaxIdleMachines caps pooled idle machines (default Concurrency).
	MaxIdleMachines int
	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Compile substitutes the compiler (tests only; nil = core.Compile).
	Compile func(string) (*core.Program, error)
	// runGate, when set, runs after admission and the machine lease,
	// before the run — package tests use it to hold a run slot
	// deterministically, or to panic under one.
	runGate func(*RunRequest)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxIdleMachines <= 0 {
		c.MaxIdleMachines = c.Concurrency
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the accd service core: compile-and-run over HTTP/JSON with
// a shared program cache, machine pool and admission queue. It carries
// no per-request state; one Server instance serves every connection.
type Server struct {
	cfg   Config
	cache *Cache
	pool  *MachinePool
	sched *scheduler
	mets  *serviceMetrics
	mux   *http.ServeMux
	start time.Time
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	mets := newServiceMetrics()
	s := &Server{
		cfg:   cfg,
		mets:  mets,
		cache: NewCache(cfg.CacheEntries, cfg.Compile, mets),
		pool:  NewMachinePool(cfg.MaxIdleMachines, mets),
		sched: newScheduler(cfg.Concurrency, cfg.QueueDepth, mets),
		start: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the service metrics registry (cache hit/miss/evict,
// queue verdicts, pool reuse).
func (s *Server) Metrics() *serviceMetrics { return s.mets }

// Cache exposes the program cache (tests, telemetry).
func (s *Server) Cache() *Cache { return s.cache }

// Drain gracefully shuts the service down: queued requests are failed
// immediately with the structured shutting_down error, new requests
// are refused, and Drain returns when every in-flight run has
// finished (or ctx expires first).
func (s *Server) Drain(ctx context.Context) error {
	done := s.sched.drain()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writeJSON marshals v and writes it with the status code. The body
// bytes are a pure function of v (encoding/json is deterministic:
// struct fields in declaration order, map keys sorted).
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	writeBody(w, status, data, err)
}

// writeBody writes an encoded reply, or the 500 of one that did not encode.
func writeBody(w http.ResponseWriter, status int, data []byte, err error) {
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, &ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	running, queued := s.sched.load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"running": running,
		"queued":  queued,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.mets.WriteJSON(w)
}

// decode parses a JSON request body strictly.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// CompileRequest is the /v1/compile body.
type CompileRequest struct {
	Source string `json:"source"`
	// Vet includes the accvet diagnostics in the response.
	Vet bool `json:"vet,omitempty"`
	// EmitSource includes the translator's CUDA-like output.
	EmitSource bool `json:"emit_source,omitempty"`
}

// CompileResponse is the /v1/compile success body.
type CompileResponse struct {
	// Key is the program's content hash — the cache identity.
	Key string `json:"key"`
	// Stats are the paper's Table II static statistics.
	Stats core.Stats `json:"stats"`
	// Diagnostics is the accvet diagnostic array (with vet).
	Diagnostics json.RawMessage `json:"diagnostics,omitempty"`
	// GeneratedSource is the translated output (with emit_source).
	GeneratedSource string `json:"generated_source,omitempty"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	entry, hit := s.cache.GetOrCompile(req.Source)
	setCacheHeader(w, hit)
	if entry.Err != nil {
		writeError(w, http.StatusUnprocessableEntity, "compile_error", entry.Err.Error())
		return
	}
	resp := &CompileResponse{Key: entry.Key, Stats: entry.Program.Stats()}
	if req.Vet {
		vres, err := entry.Vet()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		diags, err := renderDiags(vres.Diags)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		resp.Diagnostics = diags
	}
	if req.EmitSource {
		resp.GeneratedSource = entry.Program.GeneratedSource()
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderDiags renders a diagnostic list as its deterministic JSON
// array, with the canonical display name "source.c".
func renderDiags(l diag.List) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf, "source.c"); err != nil {
		return nil, err
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes())), nil
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Accd-Cache", "hit")
	} else {
		w.Header().Set("X-Accd-Cache", "miss")
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	var req RunRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// 1. Compile (or reuse): the content-hash cache with singleflight.
	entry, hit := s.cache.GetOrCompile(req.Source)
	setCacheHeader(w, hit)
	if entry.Err != nil {
		writeError(w, http.StatusUnprocessableEntity, "compile_error", entry.Err.Error())
		return
	}
	prog := entry.Program

	// 2. Vet gate (cached once per program).
	if req.Vet {
		vres, err := entry.Vet()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		if vres.Diags.HasErrors() {
			diags, derr := renderDiags(vres.Diags)
			if derr != nil {
				writeError(w, http.StatusInternalServerError, "internal", derr.Error())
				return
			}
			writeJSON(w, http.StatusUnprocessableEntity, &ErrorResponse{Error: ErrorDetail{
				Code:        "vet_rejected",
				Message:     "vet found error-severity diagnostics; not running",
				Diagnostics: diags,
			}})
			return
		}
	}

	// 3. Resolve platform, mode, options, faults.
	spec, err := cliutil.Machine(req.Machine, req.GPUs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	mode, err := cliutil.Mode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	plan, err := (&cliutil.RunFlags{Faults: req.Faults}).FaultPlan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// 4. Bindings and the admission weight: the estimated
	// device-memory footprint of the bound program, which must fit the
	// machine's devices between them.
	bind, footprint, err := buildBindings(&req, prog, int64(spec.NumGPUs)*spec.GPU.MemBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// 5. Admission: weighted fair queue with bounded depth.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	job, err := s.sched.submit(footprint)
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}
	select {
	case gerr := <-job.grant:
		if gerr != nil {
			s.rejectAdmission(w, gerr)
			return
		}
	case <-ctx.Done():
		if s.sched.cancel(job) {
			writeError(w, http.StatusGatewayTimeout, "timeout", "request timed out while queued")
			return
		}
		// The grant raced the timeout: consume it and release the slot
		// (a terminal admission error needs no release).
		if gerr := <-job.grant; gerr != nil {
			s.rejectAdmission(w, gerr)
			return
		}
		s.sched.release()
		s.mets.Inc("run.timeout", 1)
		writeError(w, http.StatusGatewayTimeout, "timeout", "request timed out while queued")
		return
	}
	// The request holds a run slot from here on. One exit gives it back
	// and counts how the run ended, in exactly one of run.ok, run.error,
	// run.timeout and run.panic. A panic below stops here, as a 500: it
	// costs this request and the machine it had leased — never pooled
	// again, whatever state the run left it in — not the daemon.
	outcome, leased := "run.error", false
	defer func() {
		if p := recover(); p != nil {
			outcome = "run.panic"
			if leased {
				s.mets.Inc("pool.discard-panic", 1)
			}
			writeError(w, http.StatusInternalServerError, "internal", fmt.Sprintf("panic during the run: %v", p))
		}
		s.sched.release()
		s.mets.Inc(outcome, 1)
	}()
	s.mets.Observe("queue.wait_us", trace.DurationBucketsUS, time.Since(began).Microseconds())

	// 6. Lease a machine and run, with cancellation threaded through
	// the runtime's Interrupt hook.
	mach, err := s.pool.Get(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	leased = true
	if s.cfg.runGate != nil {
		s.cfg.runGate(&req)
	}
	opts := rt.Options{
		Mode:        mode,
		Async:       !req.Options.NoAsync,
		BalanceLoad: req.Options.BalanceLoad,
		Interrupt:   func() error { return ctx.Err() },
	}
	res, runErr := prog.RunOn(mach, bind, core.Config{
		Options: opts,
		Audit:   req.Options.Audit,
		Faults:  plan,
	})
	leased = false
	// Machines that ran a fault plan are poisoned (capacity shrink);
	// everything else goes back to the pool if pristine.
	if !plan.Active() {
		s.pool.Put(mach)
	}
	if runErr != nil {
		var ie *rt.InterruptedError
		if errors.As(runErr, &ie) || ctx.Err() != nil {
			outcome = "run.timeout"
			writeError(w, http.StatusGatewayTimeout, "timeout", "request timed out or was canceled during the run")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "run_error", runErr.Error())
		return
	}

	// 7. The deterministic response body.
	resp, err := buildResponse(&req, res.Instance, res.Report)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	outcome = "run.ok"
	s.mets.Observe("run.service_us", trace.DurationBucketsUS, time.Since(began).Microseconds())
	data, err := resp.body()
	writeBody(w, http.StatusOK, data, err)
}

// rejectAdmission maps admission errors to their structured replies.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "overloaded", "admission queue full; retry later")
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining; request not accepted")
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// retryAfterSeconds estimates how long an overloaded client should
// back off: one second per full queue's worth of backlog, at least 1.
func (s *Server) retryAfterSeconds() int {
	_, queued := s.sched.load()
	sec := 1 + queued/(s.cfg.Concurrency*64+1)
	if sec > 30 {
		sec = 30
	}
	return sec
}

// String summarizes the server config for startup logs.
func (s *Server) String() string {
	return fmt.Sprintf("accd: cache=%d entries, concurrency=%d, queue=%d, timeout=%s",
		s.cfg.CacheEntries, s.cfg.Concurrency, s.cfg.QueueDepth, s.cfg.DefaultTimeout)
}
