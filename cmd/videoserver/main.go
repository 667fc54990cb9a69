// Command videoserver serves a video database over HTTP (see
// internal/server for the API).
//
// Usage:
//
//	videoserver [-addr :8080] [-data DIR [-block-cache BYTES] | -db snapshot.json]
//	            [-query-timeout 0] [-max-derived N]
//	            [-max-concurrent 0] [-queue-depth 0] [-per-tenant]
//	            [-slow-query 0] [-access-log] [-pprof] [script.vql ...]
//
// With -data the database is durable in DIR: facts live in immutable
// on-disk segment files behind a byte-budgeted block cache
// (-block-cache), so the corpus can exceed RAM and a restart reads only
// the manifest and a short tail log. With -db a snapshot is loaded into
// a volatile in-memory database. Scripts run before serving (their
// query output goes to stdout). -query-timeout bounds each request's
// evaluation (0 = no bound). On SIGINT/SIGTERM the server drains
// in-flight requests and closes the database before exiting, so a
// durable store always gets its final flush.
//
// Overload: -max-concurrent N admits at most N evaluations at once
// (queries, scripts, view builds, subscription snapshots); the next
// -queue-depth requests wait FIFO for a slot and give up if their
// connection dies; the rest are refused with 429 + Retry-After.
// -per-tenant applies the limits per API key (X-API-Key header, falling
// back to the client address) instead of globally.
//
// Observability: GET /metrics serves Prometheus-format counters;
// -slow-query D logs every evaluation that takes at least D; -access-log
// logs every request; -pprof serves net/http/pprof under /debug/pprof/.
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

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/server"
	"videodb/internal/store/segment"
)

// shutdownGrace bounds how long a drain may take once a signal arrives.
const shutdownGrace = 10 * time.Second

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run owns the whole lifecycle so every cleanup is a defer that actually
// executes: log.Fatal in main skips defers, which is exactly the bug that
// used to leave a durable store without its final flush.
func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "durable database directory (segment files)")
	blockCache := flag.Int64("block-cache", 0, "block-cache budget in bytes for -data (0 = default 32 MiB)")
	snapshot := flag.String("db", "", "snapshot to load into a volatile in-memory database")
	queryTimeout := flag.Duration("query-timeout", 0, "per-request query evaluation bound (0 = unlimited)")
	maxDerived := flag.Int("max-derived", 0, "max derived tuples per query (0 = engine default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent evaluations per tenant (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "requests allowed to wait for a slot beyond -max-concurrent")
	perTenant := flag.Bool("per-tenant", false, "apply -max-concurrent per API key / client address instead of globally")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this duration (0 = off)")
	accessLog := flag.Bool("access-log", false, "log every HTTP request")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	var (
		db  *core.DB
		err error
	)
	var coreOpts []core.Option
	if *maxDerived > 0 {
		coreOpts = append(coreOpts, core.WithEngineOptions(datalog.MaxDerived(*maxDerived)))
	}
	switch {
	case *dataDir != "" && *snapshot != "":
		return errors.New("videoserver: -data and -db are mutually exclusive")
	case *dataDir != "":
		var segOpts []segment.Option
		if *blockCache > 0 {
			segOpts = append(segOpts, segment.WithBlockCacheBytes(*blockCache))
		}
		db, err = core.OpenSegment(*dataDir, segOpts...)
		if err != nil {
			return err
		}
		for _, o := range coreOpts {
			o(db)
		}
		defer func() {
			if cerr := db.Close(); cerr != nil {
				log.Printf("videoserver: close: %v", cerr)
			}
		}()
	default:
		db = core.New(coreOpts...)
		if *snapshot != "" {
			if err := db.LoadFile(*snapshot); err != nil {
				return err
			}
		}
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		results, err := db.LoadScript(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("loaded %s (%d queries)\n", path, len(results))
	}

	srvOpts := []server.Option{server.WithQueryTimeout(*queryTimeout)}
	if *maxConcurrent > 0 {
		srvOpts = append(srvOpts, server.WithAdmission(server.AdmissionConfig{
			MaxConcurrent: *maxConcurrent,
			QueueDepth:    *queueDepth,
			PerTenant:     *perTenant,
		}))
	}
	if *slowQuery > 0 {
		srvOpts = append(srvOpts, server.WithSlowQueryLog(*slowQuery, nil))
	}
	if *accessLog {
		srvOpts = append(srvOpts, server.WithAccessLog(nil))
	}
	if *pprofOn {
		srvOpts = append(srvOpts, server.WithPprof())
	}
	api := server.New(db, srvOpts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("videoserver listening on %s", *addr)

	select {
	case err := <-errCh:
		return err // bind failure or other serve error
	case <-ctx.Done():
	}
	stop()
	log.Print("videoserver: shutting down")
	// Close live subscriptions first: an open SSE stream never finishes on
	// its own, so Shutdown would otherwise block for the full grace period.
	api.Close()
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
