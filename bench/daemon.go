package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// readyCap bounds the wait for /readyz. A daemon thrashing a too-small
// block cache was seen to answer 503 "starting" for 12 s; beyond a minute
// something is wrong.
const readyCap = 60 * time.Second

// procs tracks every child process and scratch directory of this run so that
// every exit path — normal return, error, Ctrl-C — can stop and remove them.
type procs struct {
	mu    sync.Mutex
	cmds  map[*exec.Cmd]os.Signal // the signal cleanup stops each child with
	dirs  map[string]bool
	ended bool
}

func newProcs() *procs {
	return &procs{cmds: make(map[*exec.Cmd]os.Signal), dirs: make(map[string]bool)}
}

// start launches cmd and registers it, to be stopped with sig on cleanup:
// SIGKILL for a daemon, SIGTERM for a child bench that has daemons of its
// own to stop. After cleanup it refuses, so a signal racing a start cannot
// leak a child.
func (p *procs) start(cmd *exec.Cmd, sig os.Signal) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ended {
		return errors.New("bench: shutting down")
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmds[cmd] = sig
	return nil
}

func (p *procs) forget(cmd *exec.Cmd) {
	p.mu.Lock()
	delete(p.cmds, cmd)
	p.mu.Unlock()
}

// tempDir creates a scratch directory under root and registers it.
func (p *procs) tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs[dir] = true
	p.mu.Unlock()
	return dir, nil
}

func (p *procs) removeDir(dir string) {
	_ = os.RemoveAll(dir) // scratch data; a leftover is only clutter under bench/out
	p.mu.Lock()
	delete(p.dirs, dir)
	p.mu.Unlock()
}

// cleanup signals every registered child that is still running and removes
// every registered directory. Safe to call more than once.
func (p *procs) cleanup() {
	p.mu.Lock()
	p.ended = true
	cmds, dirs := p.cmds, p.dirs
	p.cmds, p.dirs = map[*exec.Cmd]os.Signal{}, map[string]bool{}
	p.mu.Unlock()
	for cmd, sig := range cmds {
		_ = cmd.Process.Signal(sig) // already-exited children report an error; nothing to do
	}
	for dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// usage is what a finished child cost, from its wait4 rusage.
type usage struct {
	cpuSeconds float64 // user + system
	maxRSSMB   float64
}

func (u usage) add(o usage) usage {
	return usage{cpuSeconds: u.cpuSeconds + o.cpuSeconds, maxRSSMB: u.maxRSSMB + o.maxRSSMB}
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{cpuSeconds: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u
}

// selfUsage is usageOf for this process.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{cpuSeconds: tv(ru.Utime) + tv(ru.Stime), maxRSSMB: float64(ru.Maxrss) / 1024}
}

// daemon is one running graphletd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	state  *os.ProcessState
	procs  *procs
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so a collision is possible but needs
// another process to grab the same ephemeral port within milliseconds.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches the graphletd binary on addr with the benchmark's
// pinned flags plus extra. Its output goes to logPath. A non-nil cpus confines
// the daemon to those CPUs from its first instruction, so its runtime sizes
// GOMAXPROCS to them.
func (e *env) startDaemon(addr, logPath string, cpus *cpuSet, extra ...string) (*daemon, error) {
	args := append([]string{
		"-addr", addr,
		// Pinned so numbers do not depend on the host's core count.
		"-workers", "1", "-max-walkers", "4", "-cache", "256", "-access-log=false",
	}, extra...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.daemonBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if cpus != nil {
		// A child inherits the mask of the thread that forks it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		own, err := affinity(0)
		if err != nil {
			return nil, err
		}
		if err := setAffinity(0, *cpus); err != nil {
			return nil, err
		}
		defer func() { _ = setAffinity(0, own) }() // the mask was valid a moment ago
	}
	if err := e.procs.start(cmd, syscall.SIGKILL); err != nil {
		return nil, fmt.Errorf("start graphletd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), procs: e.procs}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is expected to be non-zero
		d.state = cmd.ProcessState
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200, the daemon exits, or
// readyCap passes.
func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, readyCap)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("graphletd exited before becoming ready: %v", d.state)
		case <-ctx.Done():
			return fmt.Errorf("graphletd not ready within %v: %w", readyCap, ctx.Err())
		case <-tick.C:
		}
	}
}

// kill SIGKILLs the daemon, waits for it, and returns what it cost.
func (d *daemon) kill() usage {
	_ = d.cmd.Process.Kill() // an already-dead daemon is fine; the wait below still reaps it
	<-d.exited
	d.procs.forget(d.cmd)
	if d.state == nil {
		return usage{}
	}
	return usageOf(d.state)
}

// buildDaemon compiles cmd/graphletd into outDir/bin, outside every timer.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "graphletd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/graphletd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/graphletd: %w", err)
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	return abs, nil
}
