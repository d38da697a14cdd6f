package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tfhpc/internal/cluster"
)

// stack is every server process of one benchmark set-up, each a shipped
// binary in its own process with its default flags:
//
//	tfserver ×2            — the CG tasks (/job:worker/task:0,1)
//	tfserve -rpc ×2        — predict replicas serving the linear model "lin"
//	tfserve -route         — the HTTP front routing over the two replicas
//	tfserve -rpc -genmodel — the generative replica serving "gen"
type stack struct {
	tasks   [2]*proc
	reps    [2]*proc
	front   *proc
	gen     *proc
	linCkpt string
	genCkpt string
}

// features is the width of both served models (the predict input row and
// the generative prompt/state).
const features = 256

// all lists the stack's processes in a fixed order.
func (s *stack) all() []*proc {
	return []*proc{s.tasks[0], s.tasks[1], s.reps[0], s.reps[1], s.front, s.gen}
}

// startStack trains the two served checkpoints with tfsgd, launches every
// server and waits until each answers health and readiness probes. With a
// non-empty traceDir every server records spans and dumps them there when
// stopped.
func startStack(bin, dir, traceDir string, seed uint64) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{
		linCkpt: filepath.Join(dir, "lin.ckpt"),
		genCkpt: filepath.Join(dir, "gen.ckpt"),
	}
	train := exec.Command(filepath.Join(bin, "tfsgd"), "-features", strconv.Itoa(features),
		"-workers", "2", "-steps", "40", "-seed", strconv.FormatUint(seed, 10),
		"-checkpoint", s.linCkpt, "-gen-checkpoint", s.genCkpt)
	if out, err := train.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("tfsgd: %v: %s", err, out)
	}

	traced := func(name string, args ...string) []string {
		if traceDir != "" {
			args = append(args, "-trace-out", filepath.Join(traceDir, name+".json"))
		}
		return args
	}
	type spec struct {
		slot *(*proc)
		name string
		bin  string
		args []string
		want []string
	}
	local := "127.0.0.1:0"
	specs := []spec{
		{&s.tasks[0], "task0", "tfserver", traced("task0", "-job", "worker", "-task", "0", "-listen", local, "-pprof", local), []string{"rpc", "debug"}},
		{&s.tasks[1], "task1", "tfserver", traced("task1", "-job", "worker", "-task", "1", "-listen", local, "-pprof", local), []string{"rpc", "debug"}},
		{&s.reps[0], "replica0", "tfserve", traced("replica0", "-listen", local, "-rpc", local, "-model", "lin="+s.linCkpt), []string{"rpc", "http"}},
		{&s.reps[1], "replica1", "tfserve", traced("replica1", "-listen", local, "-rpc", local, "-model", "lin="+s.linCkpt), []string{"rpc", "http"}},
		{&s.gen, "gen", "tfserve", traced("gen", "-listen", local, "-rpc", local, "-genmodel", "gen="+s.genCkpt), []string{"rpc", "http"}},
	}
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp spec) {
			defer wg.Done()
			p, err := launch(sp.name, filepath.Join(bin, sp.bin), sp.args, sp.want, dir)
			*sp.slot, errs[i] = p, err
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	front, err := launch("front", filepath.Join(bin, "tfserve"),
		traced("front", "-listen", local, "-route", s.reps[0].addrs["rpc"]+","+s.reps[1].addrs["rpc"]),
		[]string{"http"}, dir)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.front = front

	peers := cluster.NewPeers(s.spec())
	defer peers.Close()
	if err := peers.WaitHealthy("worker", 20*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	for _, p := range []*proc{s.reps[0], s.reps[1], s.front, s.gen} {
		for _, path := range []string{"/healthz", "/readyz"} {
			if err := waitOK("http://" + p.addrs["http"] + path); err != nil {
				s.stop()
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
	}
	return s, nil
}

// spec is the cluster spec of the CG tasks.
func (s *stack) spec() cluster.Spec {
	return cluster.Spec{"worker": {s.tasks[0].addrs["rpc"], s.tasks[1].addrs["rpc"]}}
}

// waitOK polls url until it answers 200, for at most 20 seconds.
func waitOK(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := metricClient.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("%s: %s", url, resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsAddr is where a process serves /metricz: the debug listener of a
// tfserver, the HTTP listener of a tfserve.
func metricsAddr(p *proc) string {
	if a := p.addrs["debug"]; a != "" {
		return a
	}
	return p.addrs["http"]
}

// memPeakMB sums VmHWM over the stack's processes and this one.
func (s *stack) memPeakMB() (float64, error) {
	pids := []int{os.Getpid()}
	for _, p := range s.all() {
		pids = append(pids, p.pid())
	}
	var kb int64
	for _, pid := range pids {
		ps, err := readProc(pid)
		if err != nil {
			return 0, err
		}
		kb += ps.hwmKB
	}
	return float64(kb) / 1024, nil
}

// stop shuts every process down (front first, so no request is routed to a
// replica that is already gone) and reports the first failure.
func (s *stack) stop() error {
	var first error
	order := []*proc{s.front, s.reps[0], s.reps[1], s.gen, s.tasks[0], s.tasks[1]}
	for _, p := range order {
		if p == nil {
			continue
		}
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
