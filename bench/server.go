package main

import (
	"context"
	"encoding/json"
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

// procs tracks every factorlogd this process has started and every
// temporary directory it has made, so that any exit path — normal return,
// failed check, per-workload deadline, SIGINT — can kill and remove them.
var procs struct {
	sync.Mutex
	running map[*server]bool
	tmpDirs map[string]bool
}

func init() {
	procs.running = map[*server]bool{}
	procs.tmpDirs = map[string]bool{}
}

// cleanupAll kills every running server and removes every temporary
// directory. Safe to call more than once.
func cleanupAll() {
	procs.Lock()
	servers := make([]*server, 0, len(procs.running))
	for s := range procs.running {
		servers = append(servers, s)
	}
	dirs := make([]string, 0, len(procs.tmpDirs))
	for d := range procs.tmpDirs {
		dirs = append(dirs, d)
	}
	procs.tmpDirs = map[string]bool{}
	procs.Unlock()
	for _, s := range servers {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// tempDir makes a directory under parent that cleanupAll removes.
func tempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	procs.Lock()
	procs.tmpDirs[dir] = true
	procs.Unlock()
	return dir, nil
}

// removeTemp removes a directory tempDir made, as soon as its user is done
// with it.
func removeTemp(dir string) {
	if dir == "" {
		return
	}
	procs.Lock()
	delete(procs.tmpDirs, dir)
	procs.Unlock()
	os.RemoveAll(dir)
}

// server is one factorlogd subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port
	stderr *os.File
	exited chan struct{} // closed once Wait has returned
}

// startServer execs bin on a free loopback port and returns without
// waiting for readiness; stderr is appended to stderrPath.
func startServer(bin string, args []string, stderrPath string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, stderr: logf, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = logf
	// If this process dies without running its clean-up, the kernel still
	// takes the server down.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	procs.Lock()
	procs.running[s] = true
	procs.Unlock()
	go func() {
		s.cmd.Wait() // the exit status of a killed server carries no news
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get("http://" + s.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("factorlogd exited before it was ready (see %s)", s.stderr.Name())
		case <-ctx.Done():
			return fmt.Errorf("factorlogd not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	s.cmd.Process.Kill() // an already-exited process is fine
	<-s.exited
	procs.Lock()
	if procs.running[s] {
		delete(procs.running, s)
		s.stderr.Close()
	}
	procs.Unlock()
}

// cpuMillis reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuMillis() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times: %q %q", f[11], f[12])
	}
	const ticksPerSecond = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) * 1000 / ticksPerSecond, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverCounters is the part of /metrics?format=json the benchmark reads.
type serverCounters struct {
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	Resilience struct {
		Admission struct {
			Shed int64 `json:"shed"`
		} `json:"admission"`
	} `json:"resilience"`
	Mutation struct {
		Epoch     int64 `json:"epoch"`
		Evictions int64 `json:"evictions"`
		Hits      int64 `json:"hits"`
		Deltas    int64 `json:"deltas"`
		Rebuilds  int64 `json:"rebuilds"`
		Builds    int64 `json:"builds"`
	} `json:"mutation"`
	Durability struct {
		Fsyncs int64 `json:"fsyncs"`
	} `json:"durability"`
}

func (s *server) counters() (serverCounters, error) {
	var c serverCounters
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + s.addr + "/metrics?format=json")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// dirMeter totals the bytes ever written under a directory by sampling it:
// every file is counted at the largest size it was seen with, so snapshots
// and segments that retention later prunes still count. Files live for at
// least one snapshot interval, far longer than the sampling period.
type dirMeter struct {
	dir  string
	seen map[string]int64
	stop chan struct{}
	done chan struct{}
}

func watchDir(dir string) *dirMeter {
	m := &dirMeter{dir: dir, seen: map[string]int64{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *dirMeter) sample() {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return // the directory appears with the first append
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			continue // counted under the name it is renamed to
		}
		if info, err := e.Info(); err == nil && info.Size() > m.seen[e.Name()] {
			m.seen[e.Name()] = info.Size()
		}
	}
}

// total stops the sampler and returns the bytes seen.
func (m *dirMeter) total() int64 {
	close(m.stop)
	<-m.done
	var n int64
	for _, size := range m.seen {
		n += size
	}
	return n
}
