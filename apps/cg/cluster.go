package cg

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/core"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// ClusterOptions tune a distributed solve over running task servers.
type ClusterOptions struct {
	// Job is the worker job name in the cluster spec (default "worker").
	Job string
	// HealthWait bounds how long to wait for the tasks to come up (default
	// 10s) — CI boots them as separate racing processes.
	HealthWait time.Duration
	// ChunkBytes is the ring pipelining granularity (0 = engine default).
	ChunkBytes int
}

// RunCluster solves A·x = b on an already-running cluster: worker w's graph
// is placed on /job:<job>/task:<w>, and each stage's Run executes on that
// task as one partition in one RPC, with the A block and the vectors staying
// resident there. The allgather/allreduce collectives run ring steps
// directly between the task servers — after the one-off upload of each
// worker's A block and vectors, the driver only moves scalars and the final
// solution.
func RunCluster(cfg Config, a, b *tensor.Tensor, peers *cluster.Peers, opts ClusterOptions) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Rank() != 2 || a.Shape()[0] != cfg.N || a.Shape()[1] != cfg.N {
		return nil, fmt.Errorf("cg: matrix shape %v does not match N=%d", a.Shape(), cfg.N)
	}
	job := opts.Job
	if job == "" {
		job = "worker"
	}
	// The ring spans every task of the job, so the driver count must match
	// exactly: a partial set of drivers would leave un-driven ranks blocking
	// the collectives until the receive timeout.
	if got := peers.Spec().NumTasks(job); got != cfg.Workers {
		return nil, fmt.Errorf("cg: %d workers requested but job %q has %d tasks (counts must match)", cfg.Workers, job, got)
	}
	wait := opts.HealthWait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	if err := peers.WaitHealthy(job, wait); err != nil {
		return nil, err
	}
	const group = "cg"
	if err := peers.InitCollective(job, group, cluster.CollectiveOptions{ChunkBytes: opts.ChunkBytes}); err != nil {
		return nil, err
	}

	rows := cfg.RowsPerWorker()
	sessions := make([]*session.Session, cfg.Workers)
	for w := range sessions {
		g := buildWorker(cfg, w, group, fmt.Sprintf("/job:%s/task:%d", job, w))
		sess, err := session.New(g, nil, session.Options{LocalJob: "client", Remote: peers})
		if err != nil {
			return nil, err
		}
		sessions[w] = sess
	}

	// Initialise remote state: each task gets its A block, x=0, r=p=b slice.
	for w := 0; w < cfg.Workers; w++ {
		pre := fmt.Sprintf("w%d/", w)
		dev := graph.DeviceSpec{Job: job, Task: w}
		blockRows := a.F64()[w*rows*cfg.N : (w+1)*rows*cfg.N]
		bSlice := tensor.FromF64(tensor.Shape{rows}, b.F64()[w*rows:(w+1)*rows])
		for _, init := range []struct {
			name string
			val  *tensor.Tensor
		}{
			{pre + "A", tensor.FromF64(tensor.Shape{rows, cfg.N}, blockRows)},
			{pre + "x", tensor.New(tensor.Float64, rows)},
			{pre + "r", bSlice},
			{pre + "p", bSlice},
		} {
			if _, err := peers.RunRemoteOp(dev, "Assign", "init/"+init.name,
				graph.Attrs{"var_name": init.name}, []string{"value"},
				[]*tensor.Tensor{init.val}); err != nil {
				return nil, fmt.Errorf("cg: init %s: %w", init.name, err)
			}
		}
	}
	rr := gemm.Dot64(b.F64(), b.F64())

	start := time.Now()
	var wg sync.WaitGroup
	results := make([]iterOut, cfg.Workers)
	for w := range sessions {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveWorker(cfg, sessions[w], w, 0, rr, nil)
			if results[w].err != nil {
				// Poison the ring on the servers so the other ranks cascade
				// the failure instead of blocking until the receive timeout.
				peers.AbortCollective(job, group)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	finalRR := rr
	itersRun := 0
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		finalRR = r.rr
		itersRun = r.iter
	}

	// Fetch and assemble the solution from the tasks.
	x := tensor.New(tensor.Float64, cfg.N)
	for w := 0; w < cfg.Workers; w++ {
		dev := graph.DeviceSpec{Job: job, Task: w}
		xw, err := peers.RunRemoteOp(dev, "Variable", "read/x",
			graph.Attrs{"var_name": fmt.Sprintf("w%d/x", w)}, nil, nil)
		if err != nil {
			return nil, err
		}
		copy(x.F64()[w*rows:(w+1)*rows], xw.F64())
	}
	return &RealResult{
		X:            x,
		Iters:        itersRun,
		ResidualNorm: math.Sqrt(finalRR),
		Seconds:      elapsed,
		Gflops:       core.Gflops(core.CGFlops(cfg.N, itersRun), elapsed),
	}, nil
}
