package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// startTimeout bounds how long a pcd may take to come up healthy.
const startTimeout = 60 * time.Second

// pcdProc is one pcd daemon running as its own process.
type pcdProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done

	mu  sync.Mutex
	log bytes.Buffer // combined output, for error messages
}

// lockedWriter appends to the proc's log under its lock.
type lockedWriter struct{ p *pcdProc }

func (w lockedWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return w.p.log.Write(b)
}

func (p *pcdProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.TrimSpace(p.log.String())
}

// startPCD launches bin/pcd with args (which must include -addr
// 127.0.0.1:0) and returns once it answers /healthz "ok". The startup
// handshake is pcd's "serving on URL" line.
func startPCD(bin string, args ...string) (*pcdProc, error) {
	p := &pcdProc{done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, "pcd"), args...)
	p.cmd.SysProcAttr = dieWithParent()
	p.cmd.Stderr = lockedWriter{p}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pcd: %w", err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			lockedWriter{p}.Write([]byte(line + "\n"))
			if !sent && strings.HasPrefix(line, "pcd: serving on ") {
				u := strings.TrimPrefix(line, "pcd: serving on ")
				if i := strings.IndexByte(u, ' '); i >= 0 {
					u = u[:i]
				}
				urlc <- u
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case p.url = <-urlc:
	case <-p.done:
		return nil, fmt.Errorf("pcd exited during startup: %v\n%s", p.err, p.output())
	case <-deadline.C:
		p.kill()
		return nil, fmt.Errorf("pcd did not report its address within %v\n%s", startTimeout, p.output())
	}
	if err := waitHealthy(p.url); err != nil {
		p.kill()
		return nil, fmt.Errorf("%w\n%s", err, p.output())
	}
	return p, nil
}

// waitHealthy polls /healthz at a 2ms cadence until it answers "ok".
// The cadence is fine-grained because set-up time is a metric.
func waitHealthy(url string) error {
	c := client.New(url)
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	for {
		st, err := c.Health(ctx)
		if err == nil && st == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("pcd at %s not healthy: %v (last status %q)", url, err, st)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *pcdProc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// cpuSeconds reads the user plus system CPU time the process has used.
func (p *pcdProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// stop sends SIGTERM (pcd drains and syncs its journal) and waits for
// the process to exit; a daemon that does not exit in time is killed
// and reported. A drained pcd exits 0.
func (p *pcdProc) stop() error {
	select {
	case <-p.done:
		return fmt.Errorf("pcd exited on its own: %v\n%s", p.err, p.output())
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("pcd did not exit after SIGTERM\n%s", p.output())
	}
	if p.err != nil && !diedOfTerm(p.cmd) {
		return fmt.Errorf("pcd exit: %v\n%s", p.err, p.output())
	}
	return nil
}

// diedOfTerm reports whether the process was ended by SIGTERM's default
// action. pcd announces readiness before it installs its signal handler,
// so a daemon stopped right after start-up (the set-up repetitions) can
// die undrained; README.md lists this as a known defect. Nothing is
// written in that window, and every store is fsck'd after the run.
func diedOfTerm(cmd *exec.Cmd) bool {
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// dieWithParent makes a child process receive SIGKILL when the
// benchmark dies, so an interrupted run leaves no daemon behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// kill ends the process and waits for it.
func (p *pcdProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}
