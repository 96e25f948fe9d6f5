package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one w5d process started for a single run.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	spill string // fresh audit spill directory, removed by stop

	exited  chan struct{} // closed once the process has been reaped
	waitErr error

	gcCycles atomic.Int64 // "gc N @..." lines seen on stderr (GODEBUG=gctrace=1)
	tailMu   sync.Mutex
	tail     []string // last stderr lines, for error messages
}

// live tracks started daemons so a watchdog can kill them before exit.
var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

// startDaemon execs bin with args plus -addr 127.0.0.1:0 and a fresh
// -audit-spill-dir under tmp, and returns once the daemon logs the
// address it serves on. A daemon that exits first, or does not come up
// within the timeout, is an error carrying its last stderr lines.
func startDaemon(bin string, args, env []string, tmp string) (*daemon, error) {
	spill, err := os.MkdirTemp(tmp, "audit-spill-")
	if err != nil {
		return nil, err
	}
	d := &daemon{spill: spill, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-audit-spill-dir", spill}, args...)...)
	d.cmd.Env = append(os.Environ(), env...)
	// The daemon dies with this process, however this process ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(spill)
		return nil, fmt.Errorf("starting w5d: %w", err)
	}
	live.Lock()
	if live.ds == nil {
		live.ds = map[*daemon]bool{}
	}
	live.ds[d] = true
	live.Unlock()

	addrCh := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				d.gcCycles.Add(1)
				continue
			}
			d.tailMu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.tailMu.Unlock()
			if _, rest, ok := strings.Cut(line, " serving on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe; read it to the end first
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.exited:
		err = fmt.Errorf("w5d exited before serving (%v): %s", d.waitErr, d.stderrTail())
	case <-time.After(90 * time.Second):
		err = fmt.Errorf("w5d did not report its address within 90s: %s", d.stderrTail())
	}
	d.stop()
	return nil, err
}

func (d *daemon) stderrTail() string {
	d.tailMu.Lock()
	defer d.tailMu.Unlock()
	return strings.Join(d.tail, " | ")
}

// alive reports an error if the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("w5d exited during the run (%v): %s", d.waitErr, d.stderrTail())
	default:
		return nil
	}
}

// stop kills the daemon, reaps it and removes its spill directory.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.spill)
	live.Lock()
	delete(live.ds, d)
	live.Unlock()
}

// stopAll kills every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time of process pid ("self" for
// this one) from /proc/<pid>/stat.
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in MiB.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }
