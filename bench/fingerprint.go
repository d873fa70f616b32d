package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint records where a result was measured. Two results are
// comparable only when their fingerprints agree on everything but the
// commit.
type fingerprint struct {
	NumCPU            int    `json:"numCPU"`
	LoadgenGOMAXPROCS int    `json:"loadgenGOMAXPROCS"`
	ServerGOMAXPROCS  int    `json:"serverGOMAXPROCS"`
	GoVersion         string `json:"goVersion"`
	Kernel            string `json:"kernel"`
	CPUModel          string `json:"cpuModel"`
	Commit            string `json:"commit"`
	Dirty             bool   `json:"dirty"`
}

func takeFingerprint(root string) fingerprint {
	fp := fingerprint{
		NumCPU:            runtime.NumCPU(),
		LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS:  serverProcs,
		GoVersion:         runtime.Version(),
		Kernel:            "unknown",
		CPUModel:          "unknown",
		Commit:            "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout that is not a git repository (the driver's) stays "unknown".
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if head, err := git("rev-parse", "HEAD"); err == nil {
		fp.Commit = head
		if st, err := git("status", "--porcelain"); err == nil {
			fp.Dirty = st != ""
		}
	}
	return fp
}
