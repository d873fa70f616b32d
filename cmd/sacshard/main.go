// Command sacshard cuts a graph into a sharded topology: a versioned
// shard-map artifact (the deterministic spatial partition) plus one binary
// subgraph per shard, ready for sacserver -shard-id/-shard-map and
// sacrouter.
//
//	sacshard -dataset brightkite -scale 0.05 -shards 2 -out /var/lib/sac/cut
//	sacshard -load graph.bin -shards 4 -out cut/
//
// The cut is deterministic: the same graph and shard count always produce
// byte-identical artifacts, so a re-run (or an independent operator)
// reproduces the topology exactly — the map checksum is how router and
// shards verify they agree.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sacsearch/internal/dataset"
	"sacsearch/internal/graph"
	"sacsearch/internal/shard"
)

func main() {
	var (
		name   = flag.String("dataset", "brightkite", "dataset preset to cut")
		scale  = flag.Float64("scale", 0.05, "dataset scale in (0,1]")
		load   = flag.String("load", "", "cut a saved binary graph file instead of a dataset preset")
		shards = flag.Int("shards", 2, "number of shards")
		out    = flag.String("out", "cut", "output directory (created if missing)")
	)
	flag.Parse()

	datasetSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dataset" {
			datasetSet = true
		}
	})
	if *load != "" && datasetSet {
		log.Fatal("sacshard: -load and -dataset are mutually exclusive")
	}

	ds, err := dataset.LoadOrRead(*load, *name, *scale)
	if err != nil {
		log.Fatalf("sacshard: %v", err)
	}
	g := ds.Graph
	m, err := shard.Partition(g, *shards)
	if err != nil {
		log.Fatalf("sacshard: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("sacshard: %v", err)
	}

	mapPath := filepath.Join(*out, "shardmap.bin")
	if err := writeFile(mapPath, func(w *bufio.Writer) error { return m.WriteMap(w) }); err != nil {
		log.Fatalf("sacshard: %v", err)
	}
	fmt.Printf("sacshard: %s — %d vertices, %d edges (%d cross-shard), checksum %08x\n",
		mapPath, m.N, m.Edges, m.CrossEdges, m.Checksum())

	for id := 0; id < m.Shards; id++ {
		sub, err := shard.Subgraph(g, m, id)
		if err != nil {
			log.Fatalf("sacshard: shard %d: %v", id, err)
		}
		path := filepath.Join(*out, fmt.Sprintf("shard-%d.bin", id))
		if err := writeFile(path, func(w *bufio.Writer) error { return graph.WriteBinary(w, sub) }); err != nil {
			log.Fatalf("sacshard: %v", err)
		}
		owned, ghosts := countGhosts(sub, m, id)
		fmt.Printf("sacshard: %s — shard %d owns %d vertices (%d ghosts)\n", path, id, owned, ghosts)
	}
}

// writeFile writes one artifact through a buffered writer with a full
// flush-close-check chain, so a short write cannot pass silently.
func writeFile(path string, write func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func countGhosts(sub *graph.Graph, m *shard.Map, id int) (owned, ghosts int) {
	sv, err := shard.NewServing(m, id)
	if err != nil {
		return 0, 0
	}
	return sv.Counts(sub)
}
