package replica

import (
	"net"
	"sync"
	"time"
)

// Fault scripts what one proxied connection does to the leader→follower
// byte stream. The zero value forwards faithfully.
type Fault struct {
	// CutAt severs the connection after forwarding exactly this many
	// leader→follower bytes (0 = never) — landing mid-frame at most offsets,
	// the truncation case.
	CutAt int64
	// FlipBitAt XORs bit 0 of the byte at this offset, counted from the
	// session start (0 = never): silent corruption the CRCs must catch.
	FlipBitAt int64
	// Delay adds latency before each forwarded chunk.
	Delay time.Duration
	// DropConnAfter severs the connection after this wall time (0 = never),
	// independent of byte counts — the flaky-network case.
	DropConnAfter time.Duration
}

// Proxy sits between a follower and a leader, applying a scripted Fault to
// each connection: drops, delays, mid-frame truncations and bit flips. The
// differential suite drives replication through it to prove that no
// injected fault can make a follower serve wrong state — only late state.
type Proxy struct {
	ln       net.Listener
	upstream string
	plan     func(session int) Fault

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	n      int
	closed bool
	done   chan struct{}
}

// NewProxy listens on a fresh localhost port and forwards each accepted
// connection to upstream, shaped by plan(sessionIndex). plan is called once
// per connection, in accept order.
func NewProxy(upstream string, plan func(session int) Fault) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if plan == nil {
		plan = func(int) Fault { return Fault{} }
	}
	p := &Proxy{ln: ln, upstream: upstream, plan: plan,
		conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address followers should dial instead of the leader.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Sessions returns how many connections the proxy has accepted so far.
func (p *Proxy) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Close severs every proxied connection and stops accepting.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	<-p.done
}

func (p *Proxy) acceptLoop() {
	defer close(p.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		fault := p.plan(p.n)
		p.n++
		p.conns[client] = struct{}{}
		p.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.serve(client, fault)
			p.mu.Lock()
			delete(p.conns, client)
			p.mu.Unlock()
		}()
	}
}

func (p *Proxy) serve(client net.Conn, f Fault) {
	defer client.Close()
	up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, up)
		p.mu.Unlock()
	}()

	kill := func() { client.Close(); up.Close() }
	if f.DropConnAfter > 0 {
		timer := time.AfterFunc(f.DropConnAfter, kill)
		defer timer.Stop()
	}
	done := make(chan struct{}, 2)
	// Follower→leader direction (handshakes) is forwarded faithfully; the
	// faults target the data-heavy leader→follower stream.
	go func() {
		copyPlain(up, client)
		kill()
		done <- struct{}{}
	}()
	go func() {
		copyFaulty(client, up, f, kill)
		kill()
		done <- struct{}{}
	}()
	<-done
	<-done
}

func copyPlain(dst, src net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// copyFaulty forwards src→dst applying the scripted fault; kill severs both
// directions when a cut triggers.
func copyFaulty(dst, src net.Conn, f Fault, kill func()) {
	buf := make([]byte, 4096)
	var sent int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if f.FlipBitAt > 0 && f.FlipBitAt >= sent && f.FlipBitAt < sent+int64(n) {
				chunk[f.FlipBitAt-sent] ^= 0x01
			}
			if f.CutAt > 0 && sent+int64(n) >= f.CutAt {
				// Forward the bytes up to the cut — likely mid-frame — then
				// sever abruptly.
				dst.Write(chunk[:f.CutAt-sent])
				kill()
				return
			}
			if f.Delay > 0 {
				time.Sleep(f.Delay)
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			sent += int64(n)
		}
		if err != nil {
			return
		}
	}
}
