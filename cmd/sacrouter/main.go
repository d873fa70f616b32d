// Command sacrouter fronts a sharded sacsearch topology with the same /v1
// API a single sacserver speaks — clients need no changes and no knowledge
// of the partition.
//
//	sacrouter -shard-map cut/shardmap.bin \
//	  -shards "http://localhost:8081|http://localhost:8083,http://localhost:8082" \
//	  -addr :8080
//
// -shards lists one endpoint group per shard id, comma-separated; within a
// group, '|' separates the shard's leader (first) from its read replicas.
// At boot the router verifies every shard is reachable and serving the same
// shard-map artifact (by checksum) before listening; /v1/ready re-checks on
// demand.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"sacsearch/internal/debugserve"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/router"
	"sacsearch/internal/shard"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/version"
)

func main() {
	var (
		mapPath   = flag.String("shard-map", "", "shard-map artifact written by sacshard (required)")
		shardsArg = flag.String("shards", "", `per-shard endpoint groups: "leader0|replica0a,leader1" (required)`)
		addr      = flag.String("addr", ":8080", "listen address")
		qTimeout  = flag.Duration("query-timeout", 15*time.Second, "per-request deadline across all shard legs")
		maxBody   = flag.Int64("max-body", 1<<20, "maximum POST body size in bytes")
		bootWait  = flag.Duration("boot-wait", 30*time.Second, "how long to wait for all shards to come up at boot (0 = don't wait)")
		grace     = flag.Duration("grace", 20*time.Second, "shutdown drain period for in-flight requests")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty; keep it firewalled)")
		metrics   = flag.Bool("metrics", true, "register internal instruments and serve Prometheus text format on /metrics")
		slowQuery = flag.Duration("slow-query", time.Second, "log requests slower than this with their span tree (0 disables)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	debugserve.Serve(*pprofAddr, reg, logger)
	bi := version.Get()
	logger.Info("sacrouter starting", "version", bi.Version, "commit", bi.Commit, "go", bi.Go)

	if *mapPath == "" || *shardsArg == "" {
		log.Fatal("sacrouter: -shard-map and -shards are required")
	}
	f, err := os.Open(*mapPath)
	if err != nil {
		log.Fatalf("sacrouter: %v", err)
	}
	m, err := shard.ReadMap(f)
	f.Close()
	if err != nil {
		log.Fatalf("sacrouter: reading %s: %v", *mapPath, err)
	}

	groups := parseShards(*shardsArg)
	rt, err := router.New(router.Config{
		Map:                m,
		Shards:             groups,
		QueryTimeout:       *qTimeout,
		MaxBodyBytes:       *maxBody,
		Logger:             logger,
		Metrics:            reg,
		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		log.Fatalf("sacrouter: %v", err)
	}

	if *bootWait > 0 {
		if err := waitTopology(rt, *bootWait); err != nil {
			log.Fatalf("sacrouter: %v", err)
		}
		logger.Info("all shards up", "shards", m.Shards, "mapChecksum", fmt.Sprintf("%08x", m.Checksum()))
	}

	fmt.Printf("sacrouter: routing %d shards (%d vertices, %d edges at cut) on %s\n",
		m.Shards, m.N, m.Edges, *addr)
	if err := httpapi.ListenAndServe(*addr, rt, *qTimeout, *grace, logger, rt.DrainSubscriptions); err != nil {
		log.Fatalf("sacrouter: %v", err)
	}
}

// parseShards splits the -shards syntax: commas separate shard groups
// (indexed by shard id), '|' separates endpoints within a group.
func parseShards(arg string) [][]string {
	var groups [][]string
	for _, group := range strings.Split(arg, ",") {
		var urls []string
		for _, u := range strings.Split(group, "|") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		groups = append(groups, urls)
	}
	return groups
}

// waitTopology polls CheckTopology until every shard is reachable with the
// router's map, so a topology booted in parallel (CI, systemd) converges
// without start-order choreography.
func waitTopology(rt *router.Router, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var lastErr error
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		lastErr = rt.CheckTopology(ctx)
		cancel()
		if lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards not ready after %v: %w", wait, lastErr)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
