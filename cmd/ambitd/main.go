// Command ambitd serves the Ambit simulator as a multi-tenant bitvector
// service: the /v1 namespace API (internal/service) mounted next to the live
// telemetry endpoints, one HTTP server for both.
//
// Usage:
//
//	ambitd                            # serve on localhost:8612
//	ambitd -addr :9000                # any interface
//	ambitd -max-inflight 4 -quota 256 # tighter admission + tenant quotas
//
// Quickstart (see README.md "Serving bitvectors over HTTP" for the full
// walk-through):
//
//	curl -X PUT localhost:8612/v1/namespaces/t0
//	curl -X PUT localhost:8612/v1/namespaces/t0/vectors/a -d '{"bits":65536}'
//	curl -X PUT --data-binary @words.le localhost:8612/v1/namespaces/t0/vectors/a/data
//	curl -X POST localhost:8612/v1/namespaces/t0/ops -d '{"op":"not","dst":"a","a":"a"}'
//	curl -X POST localhost:8612/v1/namespaces/t0/query -d '{"op":"popcount","vector":"a"}'
//
// Endpoints (see `curl http://localhost:8612/`):
//
//	/v1/...         the namespace API (service layer)
//	/metrics        Prometheus histograms, counters (per-tenant svc_* series
//	                included), and svc_* gauges
//	/healthz        liveness
//	/trace          live trace events (server-sent events); ?ns=NAME keeps
//	                only the named tenant's spans
//	/banks          per-bank busy-fraction timelines (JSON)
//	/debug/slowlog  slowest requests (JSON, slowest first; ?n=K truncates)
//	/debug/pprof    Go profiler
//
// With -log, every failed request and one in -log-every successful requests
// is written to stderr as a structured log line (text or JSON).
//
// To drive load against a running ambitd, use cmd/ambitload.  Interrupt
// (ctrl-c) stops the server and prints the final stats.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"ambit"
	"ambit/internal/service"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ambitd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "localhost:8612", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "concurrent requests executing on the simulator (0 = default 16)")
	maxQueue := flag.Int("max-queue", 0, "requests waiting for an execution slot before 429 (0 = default 64)")
	maxWait := flag.Duration("max-wait", 0, "queueing deadline before 429 + Retry-After (0 = default 2s)")
	quota := flag.Int("quota", 0, "default per-namespace row quota (0 = default 4096, negative = unlimited)")
	saturation := flag.Float64("saturation", 0, "bank busy-fraction rejection threshold (0 = default 0.95, negative = off)")
	sample := flag.Int("sample", 0, "keep one in N op spans on /trace (0 or 1 = all)")
	logMode := flag.String("log", "", "structured request logging to stderr: text or json (empty = off)")
	logEvery := flag.Int("log-every", 100, "log one in N successful requests (failures always logged; with -log)")
	slowlogSize := flag.Int("slowlog", 0, "slowest requests retained for /debug/slowlog (0 = default 64)")
	flag.Parse()

	sys, err := ambit.New(
		ambit.WithTelemetryAddr(*addr),
		ambit.WithTraceSampling(*sample),
	)
	if err != nil {
		fail("%v", err)
	}
	var logger *slog.Logger
	switch *logMode {
	case "":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fail("-log must be text, json, or empty, got %q", *logMode)
	}
	svc := service.New(sys, service.Config{
		MaxInflight:         *maxInflight,
		MaxQueue:            *maxQueue,
		MaxWait:             *maxWait,
		DefaultQuotaRows:    *quota,
		SaturationThreshold: *saturation,
		Logger:              logger,
		LogEvery:            *logEvery,
		SlowlogSize:         *slowlogSize,
	})
	if err := sys.RegisterHTTP("/v1/", "multi-tenant bitvector namespace API", svc); err != nil {
		fail("%v", err)
	}
	if err := sys.RegisterHTTP("/debug/slowlog", "slowest requests (JSON, slowest first)", svc.SlowlogHandler()); err != nil {
		fail("%v", err)
	}

	fmt.Printf("ambitd: serving on http://%s (try `curl http://%s/v1/stats`); ctrl-c to stop\n",
		sys.TelemetryAddr(), sys.TelemetryAddr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	fmt.Printf("ambitd: final stats: %v\n", sys.Stats())
	if err := svc.Close(); err != nil {
		fail("close: %v", err)
	}
	if err := sys.Close(); err != nil {
		fail("close: %v", err)
	}
}
