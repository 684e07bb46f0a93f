package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live holds the running daemons, so the watchdog can stop them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// killDaemons kills every running daemon (the watchdog's last act).
func killDaemons() {
	live.Lock()
	defer live.Unlock()
	for d := range live.set {
		_ = d.cmd.Process.Kill()
	}
}

func track(d *daemon, running bool) {
	live.Lock()
	defer live.Unlock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	if running {
		live.set[d] = true
	} else {
		delete(live.set, d)
	}
}

// daemon is one running tfsnd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	drain  chan struct{} // closed when its stdout reaches EOF
	waited bool
}

// startDaemon execs tfsnd, with GOMAXPROCS=procs when procs > 0, and
// returns once /healthz answered 200. The returned duration runs from
// exec to that first 200: the daemon's set-up time as a client sees it.
func startDaemon(bin string, args []string, procs int, tmp string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	if procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, drain: make(chan struct{})}
	track(d, true)
	br := bufio.NewReader(out)
	for d.addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("tfsnd exited before serving: %v", err)
		}
		if a, ok := strings.CutPrefix(strings.TrimSpace(line), "serving on "); ok {
			d.addr = a
		}
	}
	go func() {
		io.Copy(io.Discard, br)
		close(d.drain)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := dial(d.addr)
		if err == nil {
			code, _, err := c.do("GET", "/healthz")
			c.close()
			if err == nil && code == 200 {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("tfsnd at %s never became healthy", d.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the daemon's resident-memory high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(d.cmd.Process.Pid)
}

// vmHWM returns /proc/<pid>/status VmHWM in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (d *daemon) stop() error {
	if d.waited {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.waited = true
		track(d, false)
		<-d.drain
		return err
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("tfsnd did not drain within 15s")
	}
}

// killedBy reports whether err is the exit of a process ended by sig.
func killedBy(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// kill ends the process and reaps it.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.waited = true
	track(d, false)
}

// kernels reads the daemon's compiled kernels variant from /stats.
func (d *daemon) kernels() (string, error) {
	c, err := dial(d.addr)
	if err != nil {
		return "", err
	}
	defer c.close()
	code, body, err := c.do("GET", "/stats")
	if err != nil {
		return "", err
	}
	var st struct {
		Kernels string `json:"kernels"`
	}
	if err := json.Unmarshal(body, &st); err != nil || code != 200 {
		return "", fmt.Errorf("/stats: status %d: %v", code, err)
	}
	return st.Kernels, nil
}
