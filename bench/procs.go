package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProcs is the GOMAXPROCS every child daemon runs with, and the
// fewest CPUs the benchmark accepts: a run on one CPU measures scheduling,
// not the stack (the lesson of the committed BENCH_8, recorded at numcpu=1).
const serverProcs = 2

// daemons are the programs under test, built from the checkout's own source.
var daemons = []string{"sacserver", "sacshard", "sacrouter"}

// env locates the checkout and the scratch space inside it. Everything the
// benchmark writes lives under <root>/.bench_build.
type env struct {
	root string // repository root (holds cmd/ and go.mod)
	bin  string // built daemons
	tmp  string // this run's graph files, shard cuts and data dirs
}

// findRoot walks up from dir to the directory holding cmd/sacserver.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "sacserver", "main.go")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no checkout with cmd/sacserver at or above %s", dir)
		}
	}
}

func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := findRoot(wd)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: filepath.Join(build, "bin"), tmp: tmp}, nil
}

// cleanup stops whatever is still running and removes the run's files.
func (e *env) cleanup() {
	children.stopAll()
	_ = os.RemoveAll(e.tmp)
}

// build compiles the three daemons into e.bin. With a warm build cache this
// is a fraction of a second; it is never part of setup_s.
func (e *env) build(ctx context.Context) error {
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "./cmd/"+d)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// tempDir makes a fresh directory under e.tmp.
func (e *env) tempDir(prefix string) (string, error) { return os.MkdirTemp(e.tmp, prefix) }

// proc is one child daemon.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts a daemon with -addr on a free loopback port. Children run
// with a fixed GOMAXPROCS and die with the benchmark (Pdeathsig), so not
// even a SIGKILLed run leaves a server behind.
func (e *env) spawn(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, url: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(e.bin, name), append(args, "-addr", addr)...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child carries nothing
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls /v1/ready until it answers 200, the child exits, or the
// deadline passes.
func (p *proc) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(p.url + "/v1/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready; stderr:\n%s", p.name, p.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop() // the child's stderr may only be read once it has ended
			return fmt.Errorf("%s not ready after 60s; stderr:\n%s", p.name, p.stderr.String())
		}
	}
}

// stop kills the child and waits until it has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// procs tracks every live child so that a failure anywhere stops them all.
type procs struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

var children = &procs{live: map[*proc]struct{}{}}

func (ps *procs) add(p *proc) {
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
}

// stopAll kills every child and waits for each. It is safe to call more
// than once.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = map[*proc]struct{}{}
	ps.mu.Unlock()
	for p := range live {
		p.stop()
	}
}

// stack is one booted topology: the processes, the URL clients talk to, and
// how long it took to come up.
type stack struct {
	procs   []*proc
	front   string   // the URL the workload drives
	shards  []string // routed only: the shard servers' URLs, by shard id
	mapFile string   // routed only: the shard map sacshard wrote
	setupS  float64
}

func (s *stack) urls() []string {
	out := make([]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.url
	}
	return out
}

// stop ends the stack's processes.
func (s *stack) stop() {
	for _, p := range s.procs {
		p.stop()
	}
}

func (s *stack) pids() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.pid()
	}
	return out
}

// bootSingle starts one sacserver over syn1 — in memory, or durable with
// fsync always when durable is set — and waits until it is ready.
func (e *env) bootSingle(ctx context.Context, sz sizing, durable bool) (*stack, error) {
	args := []string{"-dataset", "syn1", "-scale", strconv.FormatFloat(sz.SynScale, 'g', -1, 64)}
	if durable {
		dir, err := e.tempDir("data-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dir, "-fsync", "always")
	}
	p, err := e.spawn("sacserver", args...)
	if err != nil {
		return nil, err
	}
	children.add(p)
	if err := p.waitReady(ctx); err != nil {
		return nil, err
	}
	return &stack{procs: []*proc{p}, front: p.url}, nil
}

// bootRouted cuts graphFile in two with sacshard, starts one sacserver per
// shard and a sacrouter in front, and waits until the router is ready. The
// router is started once the shards answer, so its boot never sits in its
// own 250 ms retry sleep.
func (e *env) bootRouted(ctx context.Context, graphFile string) (*stack, error) {
	cut, err := e.tempDir("cut-")
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "sacshard"), "-load", graphFile, "-shards", "2", "-out", cut)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("sacshard: %w\n%s", err, out)
	}
	mapFile := filepath.Join(cut, "shardmap.bin")
	st := &stack{mapFile: mapFile}
	for id := 0; id < 2; id++ {
		p, err := e.spawn("sacserver", "-load", filepath.Join(cut, fmt.Sprintf("shard-%d.bin", id)),
			"-shard-id", strconv.Itoa(id), "-shard-map", mapFile)
		if err != nil {
			return nil, err
		}
		children.add(p)
		st.procs = append(st.procs, p)
		st.shards = append(st.shards, p.url)
	}
	for _, p := range st.procs {
		if err := p.waitReady(ctx); err != nil {
			return nil, err
		}
	}
	rt, err := e.spawn("sacrouter", "-shard-map", mapFile, "-shards", strings.Join(st.shards, ","))
	if err != nil {
		return nil, err
	}
	children.add(rt)
	st.procs = append(st.procs, rt)
	if err := rt.waitReady(ctx); err != nil {
		return nil, err
	}
	st.front = rt.url
	return st, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuSeconds is the user + system CPU time the processes have used so far.
func cpuSeconds(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; fields count from after its ")".
		rest := raw[bytes.LastIndexByte(raw, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		utime, err1 := strconv.ParseFloat(f[11], 64)
		stime, err2 := strconv.ParseFloat(f[12], 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, err
		}
		total += (utime + stime) / clockTick
	}
	return total, nil
}

// rssPeakMB sums the processes' peak resident set sizes (VmHWM).
func rssPeakMB(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += kb / 1024
				found = true
				break
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
		}
	}
	return total, nil
}

// selfCPUSeconds is this process's own user + system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters is one scrape of a daemon's /metrics: sample name with its label
// string, exactly as exposed, to value.
type counters map[string]float64

// scrape reads the Prometheus text at url+"/metrics".
func scrape(url string) (counters, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds up every sample of the family, optionally only those whose label
// string contains match.
func (c counters) sum(family, match string) float64 {
	var s float64
	for k, v := range c {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, match) {
			s += v
		}
	}
	return s
}

// sub is the per-sample difference after − before.
func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// scrapeAll sums the scrapes of several daemons.
func scrapeAll(urls []string) (counters, error) {
	out := counters{}
	for _, u := range urls {
		c, err := scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			out[k] += v
		}
	}
	return out, nil
}
