// Command accd serves the OpenACC compile-and-run pipeline over
// HTTP/JSON: many concurrent clients share one content-hash cache of
// compiled programs, and each run builds its own simulated machine.
//
// Usage:
//
//	accd [-addr :8080] [-cache 256] [-concurrency n] [-queue 1024]
//	     [-timeout 60s] [-drain-grace 30s]
//
// Endpoints:
//
//	POST /v1/run      compile (or reuse), vet on request, and execute;
//	                  the JSON body is serve.RunRequest, the response
//	                  carries the report, final scalars and per-array
//	                  SHA-256 digests. X-Accd-Cache says hit or miss.
//	POST /v1/compile  compile only; returns the content-hash key,
//	                  static stats and (on request) diagnostics and
//	                  the generated source.
//	GET  /v1/metrics  the service metrics registry as JSON.
//	GET  /healthz     liveness plus current load.
//
// Responses are deterministic: the body of every reply is a pure
// function of the request, so the same request returns bit-identical
// bytes whether the daemon is idle or saturated. Overload is explicit:
// when the admission queue is full the daemon answers 429 with a
// Retry-After header rather than queueing without bound.
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish and respond
// normally, queued requests receive a structured shutting_down error,
// and the process exits once the last run has left (or after the
// drain grace period).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accmulti/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cache       = flag.Int("cache", 0, "program-cache capacity in entries (0 = default)")
		concurrency = flag.Int("concurrency", 0, "concurrent run slots (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "admission queue depth (0 = default, negative = none)")
		timeout     = flag.Duration("timeout", 0, "default per-request timeout (0 = 60s)")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight runs")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: accd [flags]")
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		CacheEntries:   *cache,
		Concurrency:    *concurrency,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("accd: listening on %s (%s)", *addr, srv)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("accd: %v", err)
	case sig := <-sigc:
		log.Printf("accd: %v: draining (in-flight runs finish, queued requests are refused)", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("accd: drain incomplete after %s: %v", *drainGrace, err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("accd: http shutdown: %v", err)
	}
	log.Printf("accd: stopped")
}
