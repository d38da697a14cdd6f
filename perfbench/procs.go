package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// addrPatterns maps an address kind to the stdout line that announces it.
// Every server binds port 0, so the announced address is the only way to
// learn where it listens.
var addrPatterns = map[string]*regexp.Regexp{
	"rpc":   regexp.MustCompile(`(?:serving on|binary endpoint on) (\S+)`),
	"http":  regexp.MustCompile(`HTTP predictor on (\S+)`),
	"debug": regexp.MustCompile(`debug server on http://(\S+)`),
}

// proc is one server process the benchmark launched.
type proc struct {
	name  string
	cmd   *exec.Cmd
	addrs map[string]string
	done  chan struct{} // closed once the process has exited and been reaped
	err   error         // exit status, valid after done
}

// live tracks every started process so an interrupted run can stop them.
var live struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

// launch starts bin with args, logs its output to logDir/<name>.log and
// waits until it has announced an address for every kind in want.
func launch(name, bin string, args []string, want []string, logDir string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Without it a child outlives a killed perfbench.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, addrs: map[string]string{}, done: make(chan struct{})}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.mu.Unlock()

	found := make(chan [2]string, len(addrPatterns))
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			for kind, re := range addrPatterns {
				if m := re.FindStringSubmatch(line); m != nil {
					select {
					case found <- [2]string{kind, m[1]}:
					default: // launch has stopped listening
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		p.err = cmd.Wait()
		close(p.done)
	}()

	timeout := time.After(20 * time.Second)
	for len(p.addrs) < len(want) || !hasAll(p.addrs, want) {
		select {
		case kv := <-found:
			p.addrs[kv[0]] = kv[1]
		case <-p.done:
			return nil, fmt.Errorf("%s exited before it was up: %v (see %s.log)", name, p.err, name)
		case <-timeout:
			p.stop()
			return nil, fmt.Errorf("%s did not announce %v within 20s", name, want)
		}
	}
	return p, nil
}

func hasAll(m map[string]string, keys []string) bool {
	for _, k := range keys {
		if m[k] == "" {
			return false
		}
	}
	return true
}

// pid returns the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to shut down gracefully (SIGTERM, which also makes
// the binaries write their trace dumps) and kills it if it has not exited
// within 15 seconds. It returns once the process has been reaped.
func (p *proc) stop() error {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
	if p.err != nil {
		return fmt.Errorf("%s: %w", p.name, p.err)
	}
	return nil
}

// stopAll stops every process still running.
func stopAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		_ = p.stop()
	}
}

// procSample is one reading of a process's /proc meters.
type procSample struct {
	wchar int64         // bytes passed to write-family syscalls (sockets included)
	cpu   time.Duration // user + system time
	hwmKB int64         // peak resident set (VmHWM)
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	iob, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	if s.wchar, err = procField(iob, "wchar:"); err != nil {
		return s, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	if s.hwmKB, err = procField(status, "VmHWM:"); err != nil {
		return s, err
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	s.cpu = time.Duration(utime+stime) * time.Second / clockTicks
	return s, nil
}

// cpuTime returns the CPU time this process and ps have used so far. The
// kernel leaves out time the hypervisor stole from a virtual CPU, so on a
// shared host this counts the work a job did, not how long it waited for
// the host. This process is read with getrusage, which counts to the
// microsecond rather than to the 10 ms clock tick of /proc/<pid>/stat.
func cpuTime(ps ...*proc) (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	t := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, p := range ps {
		s, err := readProc(p.pid())
		if err != nil {
			return 0, err
		}
		t += s.cpu
	}
	return t, nil
}

// procField returns the integer after key in a "key: value [unit]" file.
func procField(b []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s field", key)
}

// meters is one reading of a set of server processes: each one's /metricz
// and /proc meters, in the order given.
type meters struct {
	m     []metrics
	procs []procSample
}

func sample(ps ...*proc) (meters, error) {
	var s meters
	for _, p := range ps {
		m, err := scrape(metricsAddr(p))
		if err != nil {
			return s, err
		}
		pm, err := readProc(p.pid())
		if err != nil {
			return s, err
		}
		s.m, s.procs = append(s.m, m), append(s.procs, pm)
	}
	return s, nil
}

// metrics is one scrape of a /metricz endpoint: series text → value.
type metrics map[string]float64

var metricClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (metrics, error) {
	resp, err := metricClient.Get("http://" + addr + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
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
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series of the metric name, whatever its labels.
func (m metrics) sum(name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			t += v
		}
	}
	return t
}

// delta returns after.sum(name) − before.sum(name).
func delta(before, after metrics, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histMean returns the mean observation of a histogram between two scrapes,
// in the histogram's unit, and 0 when nothing was observed.
func histMean(before, after metrics, name string) float64 {
	n := delta(before, after, name+"_count")
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum") / n
}
