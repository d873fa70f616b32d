package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sacsearch/internal/graph"
)

// FuzzLoadCheckpoint feeds loadCheckpoint arbitrary files. It must return an
// error or a graph, never panic; a header whose CRC no longer matches its
// magic and sequence is refused; an accepted file is exactly its header and
// the graph's WriteBinary bytes, so no byte of it escapes a CRC (a valid file
// with one byte appended was accepted once); and whatever it accepts, written
// back by writeCheckpoint, loads to the same sequence and the same bytes.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	if err := writeCheckpoint(dir, testGraph(), 12); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ckptName(12)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:20])
	f.Add(valid[:len(valid)-1])
	stale := bytes.Clone(valid)
	stale[8]++ // the sequence moves, its CRC does not
	f.Add(stale)
	f.Add([]byte("SACCKPT1"))
	f.Add(append(bytes.Clone(valid), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "input")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, seq, err := loadCheckpoint(path)
		if err != nil {
			if g != nil {
				t.Fatalf("error %v came with a graph", err)
			}
			return
		}
		if g == nil {
			t.Fatal("no error and no graph")
		}
		if binary.LittleEndian.Uint32(data[16:20]) != crc32.ChecksumIEEE(data[:16]) {
			t.Fatal("accepted a header whose CRC does not match")
		}
		var want bytes.Buffer
		if err := graph.WriteBinary(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[20:], want.Bytes()) {
			t.Fatalf("accepted %d bytes after the header, the graph is %d", len(data)-20, want.Len())
		}
		if err := writeCheckpoint(dir, g, seq); err != nil {
			t.Fatal(err)
		}
		back, backSeq, err := loadCheckpoint(filepath.Join(dir, ckptName(seq)))
		if err != nil {
			t.Fatalf("a checkpoint written from an accepted one does not load: %v", err)
		}
		var got bytes.Buffer
		if err := graph.WriteBinary(&got, back); err != nil {
			t.Fatal(err)
		}
		if backSeq != seq || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round trip: seq %d -> %d, graph bytes equal %v", seq, backSeq, bytes.Equal(got.Bytes(), want.Bytes()))
		}
	})
}
