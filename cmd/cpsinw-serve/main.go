// Command cpsinw-serve runs the fault-campaign service: an HTTP/JSON
// API over the reproduction's fault simulation and ATPG engines with a
// bounded job queue, a worker pool, a content-addressed result cache
// and full observability (Prometheus metrics, SSE progress streams,
// per-campaign span traces, pprof).
//
// Usage:
//
//	cpsinw-serve [-addr :8080] [-workers n] [-queue n] [-cache n]
//	             [-job-timeout 60s] [-progress-interval 100ms]
//	             [-dict-dir path] [-result-dir path] [-shard-retries n]
//	             [-log-level info] [-log-format text]
//	             [-debug-addr 127.0.0.1:6060]
//
// Endpoints (main listener):
//
//	POST /v1/campaigns                  submit a campaign (netlist or benchmark + fault config)
//	GET  /v1/campaigns/{id}             job status (includes live progress)
//	GET  /v1/campaigns/{id}/report      finished report as compact JSON, encoded once and held as bytes
//	GET  /v1/campaigns/{id}/events      SSE progress stream, ends with the terminal state
//	GET  /v1/campaigns/{id}/trace       per-campaign span tree (stage timings)
//	GET  /v1/campaigns/{id}/dictionary  fault-dictionary artifact metadata (needs -dict-dir)
//	POST /v1/campaigns/{id}/resume      resubmit a resumable campaign (needs -result-dir)
//	GET  /v1/resumable                  campaigns recoverable after a restart (needs -result-dir)
//	POST /v1/diagnose                   rank faults against an observed failure (needs -dict-dir)
//	GET  /healthz                       readiness: queue depth vs capacity, accepting flag
//	GET  /metrics                       Prometheus text exposition (?format=json: legacy flat JSON)
//
// Debug listener (-debug-addr, loopback only; empty disables):
//
//	GET  /debug/pprof/...             net/http/pprof profiles
//	GET  /debug/vars                  expvar, including the cpsinw metrics snapshot
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cpsinw/internal/obs"
	"cpsinw/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded submission queue depth")
	cacheSize := flag.Int("cache", 128, "result cache entries (LRU)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job deadline")
	progressEvery := flag.Duration("progress-interval", 100*time.Millisecond,
		"minimum spacing between streamed progress events (negative: unthrottled)")
	dictDir := flag.String("dict-dir", "",
		"fault-dictionary store directory; campaigns persist signature dictionaries there and /v1/diagnose answers from them (empty disables)")
	resultDir := flag.String("result-dir", "",
		"durable result store directory: completed campaigns (merged reports) and, in plans of 2+ shards, completed shards persist under content addresses and are reused; unfinished campaigns resume after restarts (empty disables)")
	shardRetries := flag.Int("shard-retries", 1, "re-attempts before quarantining a failed campaign shard (negative disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text (logfmt) or json")
	debugAddr := flag.String("debug-addr", "127.0.0.1:6060",
		"debug listener (pprof, expvar); loopback only; empty disables")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	srv := service.NewServer(service.ManagerConfig{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		JobTimeout:       *jobTimeout,
		ProgressInterval: *progressEvery,
		DictDir:          *dictDir,
		ResultDir:        *resultDir,
		ShardRetries:     *shardRetries,
		Logger:           logger,
	})
	defer srv.Close()

	mgr := srv.Manager()
	expvar.Publish("cpsinw", expvar.Func(func() interface{} {
		return mgr.Metrics().Snapshot(mgr.QueueDepth(), mgr.Workers(), mgr.Cache())
	}))

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           obs.AccessLog(logger, srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	var debugSrv *http.Server
	if *debugAddr != "" {
		if err := requireLoopback(*debugAddr); err != nil {
			log.Fatal(err)
		}
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "workers", mgr.Workers(), "queue", *queue, "cache", *cacheSize,
		"job_timeout", jobTimeout.String(), "progress_interval", progressEvery.String())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err.Error())
	}
	// Drain instead of hard-stopping: in-flight shards finish and persist
	// to the result store, queued campaigns park as resumable state that
	// the next process recovers via GET /v1/resumable.
	mgr.Drain()
	if debugSrv != nil {
		debugSrv.Shutdown(shutCtx)
	}
}

// newLogger builds the service's logger from the -log-level and
// -log-format values: slog's text (logfmt) or JSON handler on w, every
// line tagged service=cpsinw-serve.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (have: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text", "logfmt", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (have: text, json)", format)
	}
	return slog.New(h).With("service", "cpsinw-serve"), nil
}

// debugMux serves the pprof profile handlers and expvar. It lives on
// its own listener so profiling endpoints never share the campaign
// API's exposure.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// requireLoopback refuses a debug address that would expose the pprof
// and expvar handlers beyond the local machine.
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-debug-addr %q: %w", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("-debug-addr %q is not loopback; profiling endpoints must stay local", addr)
	}
	return nil
}
