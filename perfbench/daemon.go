package main

import (
	"context"
	"fmt"
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

// daemon is one running leakd process of the system under test.
type daemon struct {
	role  string // "leakd", "coordinator" or "worker"
	addr  string // host:port
	store string // store directory
	cmd   *exec.Cmd
	log   string
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's result, valid after done
}

func (d *daemon) url() string { return "http://" + d.addr }

// live tracks every started daemon so a failing run still stops them all.
var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

// startDaemon launches bin with args plus -store and an -addr that lets
// the kernel choose a free loopback port; waitListening reads the port
// back from the log. Stdout and stderr go to a log file beside the store.
func startDaemon(bin, role, storeDir string, args ...string) (*daemon, error) {
	logPath := storeDir + ".log"
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-store", storeDir}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	d := &daemon{role: role, store: storeDir, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		lf.Close()
		close(d.done)
	}()
	live.Lock()
	if live.ds == nil {
		live.ds = make(map[*daemon]bool)
	}
	live.ds[d] = true
	live.Unlock()
	return d, nil
}

// stop asks the daemon to drain with SIGTERM and waits for it to exit,
// killing it if the drain overruns. A daemon that already died, or that
// exits non-zero on the drain, is an error: the run's numbers would be
// from a broken system.
func (d *daemon) stop() error {
	defer func() {
		live.Lock()
		delete(live.ds, d)
		live.Unlock()
	}()
	select {
	case <-d.done:
		return fmt.Errorf("%s at %s exited early: %v%s", d.role, d.addr, d.err, d.logTail())
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s at %s did not drain within 20s%s", d.role, d.addr, d.logTail())
	}
	if d.err != nil {
		return fmt.Errorf("%s at %s: drain: %v%s", d.role, d.addr, d.err, d.logTail())
	}
	return nil
}

// kill stops the daemon with SIGKILL and waits for it, for deployments
// whose shutdown is not measured: leakd installs its SIGTERM handler only
// after it starts serving, so a SIGTERM right after start-up could kill
// it instead of draining it. A daemon that already died is an error.
func (d *daemon) kill() error {
	defer func() {
		live.Lock()
		delete(live.ds, d)
		live.Unlock()
	}()
	select {
	case <-d.done:
		return fmt.Errorf("%s at %s exited early: %v%s", d.role, d.addr, d.err, d.logTail())
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	return nil
}

// logTail returns the last lines of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log)
	if err != nil {
		return fmt.Sprintf(" (log %s: %v)", d.log, err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > logTailLines {
		lines = lines[len(lines)-logTailLines:]
	}
	return fmt.Sprintf(" (log %s ends:\n\t%s)", d.log, strings.Join(lines, "\n\t"))
}

const logTailLines = 8

// killAll stops every daemon still running, for error exits.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// listenPrefix starts the address in leakd's "listening on" log line.
const listenPrefix = "leakd: listening on http://"

// waitListening polls the daemon's log until leakd reports the address
// it is serving on, and records it.
func (d *daemon) waitListening(ctx context.Context) error {
	for d.addr == "" {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up: %v%s", d.role, d.err, d.logTail())
		default:
		}
		b, err := os.ReadFile(d.log)
		if err != nil {
			return fmt.Errorf("%s: %w", d.role, err)
		}
		if _, rest, ok := strings.Cut(string(b), listenPrefix); ok {
			if addr, _, ok := strings.Cut(rest, ","); ok {
				d.addr = addr
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never reported its address: %w%s", d.role, ctx.Err(), d.logTail())
		case <-time.After(healthPoll):
		}
	}
	return nil
}

// waitHealthy waits until every daemon serves and its /healthz answers
// "ok". A leakd starts in a few milliseconds, so the poll interval is
// kept to a small fraction of that.
func waitHealthy(ctx context.Context, ds []*daemon) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for _, d := range ds {
		if err := d.waitListening(ctx); err != nil {
			return err
		}
		for {
			select {
			case <-d.done:
				return fmt.Errorf("%s at %s exited during start-up: %v%s", d.role, d.addr, d.err, d.logTail())
			default:
			}
			if ok := healthOK(ctx, hc, d.url()); ok {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s at %s never became healthy: %w%s", d.role, d.addr, ctx.Err(), d.logTail())
			case <-time.After(healthPoll):
			}
		}
	}
	return nil
}

func healthOK(ctx context.Context, hc *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var buf [256]byte
	n, _ := resp.Body.Read(buf[:])
	return resp.StatusCode == http.StatusOK && strings.Contains(string(buf[:n]), `"status":"ok"`)
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in kB.
func procStatus(pid int, key string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("read status of pid %d: %w", pid, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("pid %d: no %s in /proc status", pid, key)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := procStatus(d.cmd.Process.Pid, "VmHWM")
	return kb / 1024, err
}

// cpuSeconds is the process's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, fmt.Errorf("read stat of %s: %w", d.role, err)
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.role)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", d.role)
	}
	return (ut + st) / clockTicks, nil
}

const healthPoll = 250 * time.Microsecond

// clockTicks is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicks = 100
