package client

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sseFrameOf formats one frame the way the server's subscribe.writeEvent
// does, with one data line per line of data.
func sseFrameOf(id uint64, event, data string) string {
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", id, event, strings.ReplaceAll(data, "\n", "\ndata: "))
}

// TestReadSSEFrameJoinsDataLines pins the SSE rule for a frame with several
// data lines: the payload is the lines joined by "\n", not run together.
func TestReadSSEFrameJoinsDataLines(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("id: 3\ndata: {\"a\":\ndata:\ndata: 1}\n\n: ping\n\n"))
	f, err := readSSEFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"a\":\n\n1}"; string(f.data) != want || f.id != "3" {
		t.Fatalf("frame = id %q data %q, want id \"3\" data %q", f.id, f.data, want)
	}
	if f, err = readSSEFrame(br); err != nil || f.event != "" || f.data != nil {
		t.Fatalf("heartbeat frame = %+v, %v; want an empty frame", f, err)
	}
}

// FuzzReadSSEFrame feeds the client's one SSE frame reader arbitrary bytes —
// it must return frames or an error, never panic — and frames in the
// server's format, which must parse back to their id, event and data.
func FuzzReadSSEFrame(f *testing.F) {
	f.Add([]byte("id: 7\nevent: delta\ndata: {\"seq\":7}\n\n"), uint64(7), "delta", "{\"seq\":7}")
	f.Add([]byte(": heartbeat\n\n\n"), uint64(0), "init", "")
	f.Add([]byte("data: a\r\ndata\r\n\r\nevent:bye\n"), uint64(1<<63), "bye", "a\nb")
	f.Add([]byte("retry: 10\nid\n:\n\nnocolon\n\n"), uint64(42), " spaced", " lead:colon")
	f.Fuzz(func(t *testing.T, raw []byte, id uint64, event, data string) {
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			if _, err := readSSEFrame(br); err != nil {
				break
			}
		}
		if strings.ContainsAny(event, "\r\n") || strings.ContainsRune(data, '\r') {
			return // not a frame the server writes
		}
		got, err := readSSEFrame(bufio.NewReader(strings.NewReader(sseFrameOf(id, event, data))))
		if err != nil {
			t.Fatalf("frame (%d, %q, %q): %v", id, event, data, err)
		}
		if got.id != fmt.Sprint(id) || got.event != event || string(got.data) != data {
			t.Fatalf("frame (%d, %q, %q) parsed as (%q, %q, %q)", id, event, data, got.id, got.event, got.data)
		}
	})
}
