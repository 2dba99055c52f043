// Command servenode runs the multi-venue serving node: a long-running HTTP
// front-end that hosts one query engine per venue from a directory of
// snapshot files and keeps serving through bad snapshots, disk trouble,
// overload and shutdown.
//
// The snapshot directory is flat: <venue>@<label>.snap serves venue
// <venue> at version <label>, labels ordering lexically (0001, 0002, …). A
// build box publishes a new index version by copying a new file into the
// directory — the node detects it, loads and verifies it off the serving
// path, and atomically swaps it in; in-flight queries finish on the old
// index. A file that fails its checksum, decode or verification is
// quarantined with a typed reason and retried with exponential backoff
// while the previous version keeps serving.
//
// Endpoints: POST /query/{venue} (batch of JSON queries), GET /healthz,
// GET /healthz/{venue}, GET /readyz, GET /statsz. Admission control sheds
// load with 429 above -max-inflight concurrent requests; every request
// runs under -timeout.
//
// With -wal ROOT object updates are durable: each venue version logs to a
// write-ahead log under ROOT/<venue>/<label>, recovered on restart. On
// SIGTERM/SIGINT the node drains: readiness flips, in-flight requests
// finish, WALs flush, a summary line prints, and the process exits 0.
//
// Usage:
//
//	servenode -snapshots /srv/snapshots -listen :8080
//	servenode -snapshots /srv/snapshots -wal /srv/wal -max-inflight 512
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viptree/internal/server"
	"viptree/internal/wal"
)

func main() {
	var (
		snapshots   = flag.String("snapshots", "", "snapshot directory to serve (required; files named <venue>@<label>.snap)")
		walRoot     = flag.String("wal", "", "write-ahead log root for durable object updates (empty: non-durable)")
		listen      = flag.String("listen", ":8080", "HTTP listen address")
		poll        = flag.Duration("poll", 500*time.Millisecond, "snapshot directory poll interval")
		maxInflight = flag.Int("max-inflight", 256, "max concurrently admitted query requests (excess gets 429)")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		workers     = flag.Int("workers", 0, "per-engine batch workers (0: GOMAXPROCS)")
		retryBase   = flag.Duration("retry-base", time.Second, "quarantine retry backoff base")
		retryMax    = flag.Duration("retry-max", time.Minute, "quarantine retry backoff cap")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
	)
	flag.Parse()
	if *snapshots == "" {
		fmt.Fprintln(os.Stderr, "servenode: -snapshots is required")
		flag.Usage()
		os.Exit(2)
	}

	node, err := server.New(server.Options{
		SnapshotDir:    *snapshots,
		WALRoot:        *walRoot,
		PollInterval:   *poll,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		Workers:        *workers,
		RetryBase:      *retryBase,
		RetryMax:       *retryMax,
		WALOptions:     wal.Options{Sync: wal.SyncAlways()},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servenode: %v\n", err)
		os.Exit(1)
	}

	// Register for the shutdown signals before listening: once /readyz can
	// answer 200 a supervisor may send SIGTERM at any moment, and one that
	// arrived before Notify would kill the node with no drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	srv := &http.Server{Addr: *listen, Handler: node.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "servenode: listening on %s, serving %s\n", *listen, *snapshots)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "servenode: %v: draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "servenode: serve: %v\n", err)
		node.Close()
		os.Exit(1)
	}

	// Graceful drain: stop accepting (readiness flips first so balancers
	// stop routing here), finish in-flight requests, then flush the WALs.
	node.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "servenode: shutdown: %v\n", err)
	}
	code := 0
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "servenode: close: %v\n", err)
		code = 1
	}
	fmt.Fprintf(os.Stderr, "servenode: drained: %s\n", node.Summary())
	os.Exit(code)
}
