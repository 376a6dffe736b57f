// The serve subcommand: the analysis as a long-running HTTP+JSON service
// (blazes/service) hosting concurrent, incrementally re-analyzed sessions.
//
// Usage:
//
//	blazes serve [-addr host:port] [-max-sessions n] [-journal dir] [...]
//
// Flags:
//
//	-addr addr           listen address (default 127.0.0.1:8351; port 0
//	                     picks a free port — the chosen address is printed)
//	-max-sessions n      concurrent session cap; least-recently-used
//	                     sessions are evicted beyond it (default 64)
//	-journal dir         journal every acknowledged mutation to dir and
//	                     replay it on boot (durable mode; default off); the
//	                     journal is one segment, compacted into a snapshot
//	                     every 1024 records
//	-max-concurrent n    admitted create/mutate/analyze requests running
//	                     at once, one goroutine each (default GOMAXPROCS)
//	-max-queue n         requests waiting for admission beyond which the
//	                     server sheds with 429 (default 256)
//	-queue-timeout d     max time a request waits for admission (default 2s)
//	-request-timeout d   per-request deadline on expensive endpoints; 0
//	                     disables (default 1m)
//	-read-header-timeout d  http.Server ReadHeaderTimeout (default 5s)
//	-write-timeout d     http.Server WriteTimeout; 0 disables (default 2m)
//	-idle-timeout d      http.Server IdleTimeout (default 2m)
//
// The server announces itself on stdout ("serving on http://...") once the
// journal is replayed, so the first request sees every recovered session;
// it runs until SIGINT/SIGTERM, then shuts down gracefully: in-flight
// requests get a drain window and their contexts are cancelled, and in
// durable mode the journal is flushed and closed. Exit codes: 0 after a
// clean shutdown, 1 if the listener or server fails, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"blazes/service"
)

// serveShutdownTimeout is the graceful-drain window after a signal.
const serveShutdownTimeout = 5 * time.Second

// withRequestTimeout wraps h so every request carries a deadline: a stuck
// client or a pathological analysis cannot hold a connection (and an
// admission slot) forever. The handlers translate the context error to 408.
func withRequestTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazes serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8351", "listen address (port 0 picks a free port)")
		maxSessions = fs.Int("max-sessions", service.DefaultMaxSessions, "concurrent session cap (LRU eviction beyond it)")

		journalDir = fs.String("journal", "", "journal directory for durable mode (empty = in-memory)")

		maxConcurrent = fs.Int("max-concurrent", 0, "admitted create/mutate/analyze requests at once (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("max-queue", service.DefaultMaxQueue, "admission queue bound; beyond it requests shed with 429")
		queueTimeout  = fs.Duration("queue-timeout", service.DefaultQueueTimeout, "max wait for an admission slot")

		requestTimeout    = fs.Duration("request-timeout", time.Minute, "per-request deadline on expensive endpoints (0 disables)")
		readHeaderTimeout = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
		writeTimeout      = fs.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (0 disables)")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazes serve [-addr host:port] [-max-sessions n] [-journal dir] [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "blazes: serve: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		fs.Usage()
		return exitUsage
	}
	if *maxSessions <= 0 {
		fmt.Fprintf(stderr, "blazes: serve: -max-sessions must be positive\n")
		fs.Usage()
		return exitUsage
	}
	if *maxConcurrent < 0 || *maxQueue < 0 {
		fmt.Fprintf(stderr, "blazes: serve: -max-concurrent and -max-queue must be non-negative\n")
		fs.Usage()
		return exitUsage
	}

	svc, err := service.Open(service.Options{
		MaxSessions:   *maxSessions,
		JournalDir:    *journalDir,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "blazes: serve: %v\n", err)
		return exitError
	}
	if *journalDir != "" {
		fmt.Fprintf(stdout, "blazes: journaling to %s (journal replayed)\n", *journalDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "blazes: serve: %v\n", err)
		_ = svc.Close()
		return exitError
	}
	fmt.Fprintf(stdout, "blazes: serving on http://%s\n", ln.Addr())

	srv := &http.Server{
		Handler: withRequestTimeout(svc.Handler(), *requestTimeout),
		// Cancel request contexts when the serve context dies, so
		// in-flight analyze work stops during the drain.
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), serveShutdownTimeout)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	err = srv.Serve(ln)
	<-done
	if cerr := svc.Close(); cerr != nil {
		fmt.Fprintf(stderr, "blazes: serve: closing journal: %v\n", cerr)
		return exitError
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "blazes: serve: %v\n", err)
		return exitError
	}
	fmt.Fprintln(stdout, "blazes: shut down cleanly")
	return exitOK
}
