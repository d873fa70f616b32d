// Command sacserver serves SAC search over HTTP — the system prototype of
// the paper's Section 6 future work.
//
// Usage:
//
//	sacserver -dataset brightkite -scale 0.05 -addr :8080
//	sacserver -load graph.bin -data-dir /var/lib/sacsearch -fsync always
//
// Then (the versioned /v1 API):
//
//	curl localhost:8080/v1/health
//	curl localhost:8080/v1/algorithms
//	curl -X POST localhost:8080/v1/query -d '{"q":17,"k":4,"algo":"exact+"}'
//	curl -X POST localhost:8080/v1/batch -d '{"queries":[{"q":17,"k":4},{"q":23,"k":4}]}'
//	curl -X POST localhost:8080/v1/checkin -d '{"v":17,"x":0.5,"y":0.5}'
//
// Downstream Go programs should prefer the typed client (sacsearch/client)
// over hand-rolled HTTP.
//
// With -data-dir the server is durable: writes go through a write-ahead log
// before becoming visible (fsync policy from -fsync), a background
// checkpointer bounds recovery time, and a restart recovers the last served
// state from the directory — the -dataset/-load graph then only seeds the
// very first boot. Without -data-dir the graph lives and dies with the
// process, as before.
//
// Replication (see the README's "Replication & failover" section):
//
//	sacserver -data-dir /var/lib/sac -listen-replication :9090   # leader
//	sacserver -replicate-from leader:9090 -addr :8081            # read replica
//	sacserver -fence leader:9090                                 # fence a deposed leader, then exit
//
// A leader with -listen-replication ships its WAL (snapshot bootstrap +
// live tail) to followers. A replica serves the read-only /v1 surface from
// the replicated state, sheds reads with 503 + Retry-After when staler than
// -staleness-bound, and reports role/epoch/lag on /v1/health. -bump-epoch
// makes a recovering durable leader outrank whoever fenced it (the
// promotion step); -fence makes a deposed leader reject writes.
//
// Sharding (see the README's "Sharded topology" section): -shard-id and
// -shard-map make this node one shard of a spatially partitioned topology.
// Serve the matching shard subgraph cut by sacshard (-load shard-N.bin),
// put sacrouter in front, and combine freely with -data-dir,
// -listen-replication or -replicate-from — a shard runs the full durable
// replication stack unchanged:
//
//	sacshard -dataset brightkite -shards 2 -out /var/lib/sac/cut
//	sacserver -load /var/lib/sac/cut/shard-0.bin -shard-id 0 -shard-map /var/lib/sac/cut/shardmap.bin
//
// The process runs a configured http.Server (read/write/idle timeouts, not
// the bare ListenAndServe defaults) and shuts down gracefully on SIGINT or
// SIGTERM: the listener closes, in-flight queries drain up to the grace
// period, then the snapshot writer stops (and a durable server writes its
// final checkpoint).
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sacsearch/internal/dataset"
	"sacsearch/internal/debugserve"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/replica"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/version"
)

func main() {
	var (
		name     = flag.String("dataset", "brightkite", "dataset preset to serve")
		scale    = flag.Float64("scale", 0.05, "dataset scale in (0,1]")
		load     = flag.String("load", "", "serve a saved binary graph file instead of a dataset preset")
		dataDir  = flag.String("data-dir", "", "durable state directory (WAL + checkpoints); empty = in-memory only")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always, interval or never (with -data-dir)")
		addr     = flag.String("addr", ":8080", "listen address")
		qTimeout = flag.Duration("query-timeout", 15*time.Second, "per-request query deadline")
		maxBody  = flag.Int64("max-body", 1<<20, "maximum POST body size in bytes")
		grace    = flag.Duration("grace", 20*time.Second, "shutdown drain period for in-flight requests")

		listenRepl = flag.String("listen-replication", "", "ship the WAL to followers on this address (requires -data-dir)")
		replFrom   = flag.String("replicate-from", "", "run as a read-only replica of the leader at this replication address")
		staleBound = flag.Duration("staleness-bound", 10*time.Second, "replica: shed reads with 503 when further behind the leader than this")
		bumpEpoch  = flag.Bool("bump-epoch", false, "bump the fencing epoch at boot, outranking whoever fenced this store (promotion; requires -data-dir)")
		fence      = flag.String("fence", "", "fence the leader at this replication address so it rejects writes, then exit")
		fenceEpoch = flag.Uint64("fence-epoch", 0, "epoch to fence with (0 = probe the leader and use its epoch + 1)")

		shardID  = flag.Int("shard-id", -1, "serve as this shard of a partitioned topology (requires -shard-map)")
		shardMap = flag.String("shard-map", "", "shard-map artifact written by sacshard (requires -shard-id)")

		queryPar  = flag.Int("query-parallelism", 0, "intra-query parallelism budget per query, scaled down by in-flight load (0 = serial)")
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
	logger.Info("sacserver starting", "version", bi.Version, "commit", bi.Commit, "go", bi.Go)

	if *fence != "" {
		runFence(*fence, *fenceEpoch)
		return
	}

	// -load and -dataset both name the graph to serve; explicitly setting
	// the two together is ambiguous, so refuse rather than pick one.
	datasetSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dataset" {
			datasetSet = true
		}
	})
	if *load != "" && datasetSet {
		log.Fatal("sacserver: -load and -dataset are mutually exclusive")
	}

	cfg := server.Config{
		QueryTimeout: *qTimeout, MaxBodyBytes: *maxBody, StalenessBound: *staleBound,
		QueryParallelism: *queryPar, Logger: logger, Metrics: reg, ServeMetrics: *metrics,
		SlowQueryThreshold: *slowQuery,
	}
	srvName := graphName(*load, *name)

	// Shard identity applies in every mode — a leader, a durable node, or a
	// replica of a shard leader all guard writes and serve /v1/shard/*.
	if (*shardID >= 0) != (*shardMap != "") {
		log.Fatal("sacserver: -shard-id and -shard-map must be set together")
	}
	if *shardMap != "" {
		sv, err := loadServing(*shardMap, *shardID)
		if err != nil {
			log.Fatalf("sacserver: %v", err)
		}
		cfg.Shard = sv
		srvName = fmt.Sprintf("%s[shard %d/%d]", srvName, sv.ID, sv.Map.Shards)
		logger.Info("serving shard", "shard", sv.ID, "shards", sv.Map.Shards,
			"owned", sv.Map.OwnedCount(sv.ID), "mapChecksum", fmt.Sprintf("%08x", sv.Map.Checksum()))
	}

	var api *server.Server
	switch {
	case *replFrom != "":
		// Replica mode: the graph comes from the leader, nothing else makes
		// sense alongside it.
		if *dataDir != "" || *listenRepl != "" || *bumpEpoch {
			log.Fatal("sacserver: -replicate-from excludes -data-dir, -listen-replication and -bump-epoch")
		}
		if *load != "" || datasetSet {
			log.Fatal("sacserver: -replicate-from excludes -load/-dataset (state comes from the leader)")
		}
		f, err := replica.NewFollower(replica.FollowerOptions{Leader: *replFrom, Logger: logger, Metrics: reg})
		if err != nil {
			log.Fatalf("sacserver: %v", err)
		}
		srvName = "replica(" + *replFrom + ")"
		api = server.NewReplica(srvName, f, cfg)
		logger.Info("replicating from leader", "leader", *replFrom, "stalenessBound", *staleBound)
	case *dataDir != "":
		policy, err := store.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("sacserver: %v", err)
		}
		// Recovery discards the bootstrap graph, so only build it (seconds
		// for the big presets) when the data dir holds nothing to recover.
		var g *graph.Graph
		if !store.HasState(*dataDir) {
			ds, err := dataset.LoadOrRead(*load, *name, *scale)
			if err != nil {
				log.Fatalf("sacserver: %v", err)
			}
			g = ds.Graph
		}
		st, err := store.Open(*dataDir, store.Options{Init: g, Fsync: policy, Metrics: reg})
		if err != nil {
			log.Fatalf("sacserver: %v", err)
		}
		s := st.Stats()
		if s.Recovered {
			logger.Info("recovered durable state; the -dataset/-load graph was not built",
				"name", srvName, "dir", *dataDir, "checkpointSeq", s.LastCheckpointSeq,
				"replayedRecords", s.ReplayedRecords)
		} else {
			logger.Info("bootstrapped durable state", "name", srvName, "dir", *dataDir, "fsync", s.FsyncPolicy)
		}
		if *bumpEpoch {
			e, err := st.BumpEpoch()
			if err != nil {
				log.Fatalf("sacserver: bumping epoch: %v", err)
			}
			logger.Info("fencing epoch bumped", "epoch", e)
		}
		if *listenRepl != "" {
			ln, err := net.Listen("tcp", *listenRepl)
			if err != nil {
				log.Fatalf("sacserver: replication listener: %v", err)
			}
			sh := replica.NewShipper(st, ln, replica.ShipperOptions{Logger: logger, Metrics: reg})
			defer sh.Close()
			cfg.ShipperStatus = sh.Status
			logger.Info("shipping WAL", "addr", ln.Addr().String(), "epoch", st.Epoch())
		}
		api = server.NewWithStore(srvName, st, cfg)
	default:
		if *listenRepl != "" || *bumpEpoch {
			log.Fatal("sacserver: -listen-replication and -bump-epoch require -data-dir")
		}
		ds, err := dataset.LoadOrRead(*load, *name, *scale)
		if err != nil {
			log.Fatalf("sacserver: %v", err)
		}
		api = server.NewWithConfig(srvName, ds.Graph, cfg)
	}
	defer api.Close()

	// Counts come from the published snapshot: the engine owns the mutable
	// graph as soon as the server exists — except on a replica, which has no
	// state until its first sync completes.
	vertices, edges := 0, 0
	if eng := api.Engine(); eng != nil {
		snap := eng.Current()
		vertices, edges = snap.Graph().NumVertices(), snap.Edges()
	}

	fmt.Printf("sacserver: serving %s (%d vertices, %d edges) on %s (API /v1)\n",
		srvName, vertices, edges, *addr)
	if err := httpapi.ListenAndServe(*addr, api, *qTimeout, *grace, logger, api.DrainSubscriptions); err != nil {
		log.Fatalf("sacserver: %v", err)
	}
	logger.Info("drained, stopping snapshot writer")
}

// runFence executes the one-shot -fence action: make the leader at addr
// reject all future writes. With epoch 0 it probes the leader for its
// current epoch first and fences with the successor — the common promotion
// case where the operator does not track epochs by hand.
func runFence(addr string, epoch uint64) {
	const timeout = 10 * time.Second
	if epoch == 0 {
		// Epoch 1 can never outrank a live leader (epochs start at 1), so
		// this probe either learns the leader's current epoch from the
		// refusal, or comes back rejected because the leader is already
		// fenced — done either way.
		current, err := replica.FenceLeader(addr, 1, timeout)
		if err == nil {
			fmt.Printf("sacserver: leader %s is already fenced (epoch %d)\n", addr, current)
			return
		}
		if current == 0 {
			log.Fatalf("sacserver: probing %s: %v", addr, err)
		}
		epoch = current + 1
	}
	leaderEpoch, err := replica.FenceLeader(addr, epoch, timeout)
	if err != nil {
		log.Fatalf("sacserver: fencing %s at epoch %d: %v (leader reports epoch %d)",
			addr, epoch, err, leaderEpoch)
	}
	fmt.Printf("sacserver: leader %s fenced at epoch %d; it now rejects writes\n", addr, epoch)
}

// loadServing reads the shard-map artifact and binds this node to one of
// its shards.
func loadServing(path string, id int) (*shard.Serving, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := shard.ReadMap(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return shard.NewServing(m, id)
}

// graphName labels the served graph without building it: the -load file's
// basename, or the preset name.
func graphName(load, name string) string {
	if load == "" {
		return name
	}
	return strings.TrimSuffix(filepath.Base(load), filepath.Ext(load))
}
