package cg

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// TestClusterSolveMatchesInProcess solves the same system over an in-process
// TCP cluster (4 task servers, ring collectives between them) and in plain
// real mode; both must converge to the same solution.
func TestClusterSolveMatchesInProcess(t *testing.T) {
	cfg := Config{N: 64, Workers: 4, MaxIters: 150, Tol: 1e-9}
	a := SPDMatrix(cfg.N, 21)
	b := tensor.RandomUniform(tensor.Float64, 22, cfg.N)

	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	dist, err := RunCluster(cfg, a, b, peers, ClusterOptions{HealthWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunReal(cfg, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(t, a, dist.X, b); rn > 1e-7 {
		t.Fatalf("cluster solve residual ‖b - Ax‖ = %g after %d iters", rn, dist.Iters)
	}
	if !dist.X.ApproxEqual(local.X, 1e-8) {
		t.Fatal("cluster and in-process solutions disagree")
	}
}

// TestClusterRejectsSmallJob: asking for more workers than the job has tasks
// must fail fast, not hang.
func TestClusterRejectsSmallJob(t *testing.T) {
	lc, err := cluster.StartLocal(map[string]int{"worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()
	cfg := Config{N: 64, Workers: 4, MaxIters: 10}
	a := SPDMatrix(cfg.N, 23)
	b := tensor.RandomUniform(tensor.Float64, 24, cfg.N)
	if _, err := RunCluster(cfg, a, b, peers, ClusterOptions{}); err == nil {
		t.Fatal("4-worker solve on a 2-task job should fail")
	}
}

// servedCalls reads this process's tfhpc_rpc_served_total: every in-process
// task server counts into it.
func servedCalls(t *testing.T) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "tfhpc_rpc_served_total "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("tfhpc_rpc_served_total not exported")
	return 0
}

// TestClusterRPCsPerIteration bounds the calls a cluster solve serves: one
// RunGraph per stage, so at most 3 per worker per iteration, plus setup and
// readback per worker (health, collective init, 4 variable inits, 3
// partition registrations, one solution read). Dispatching every op as its
// own call serves about 23 per worker per iteration.
func TestClusterRPCsPerIteration(t *testing.T) {
	cfg := Config{N: 64, Workers: 2, MaxIters: 40}
	a := SPDMatrix(cfg.N, 25)
	b := tensor.RandomUniform(tensor.Float64, 26, cfg.N)
	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	before := servedCalls(t)
	res, err := RunCluster(cfg, a, b, peers, ClusterOptions{HealthWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	served := servedCalls(t) - before
	const setup = 10
	if bound := int64(cfg.Workers * (3*res.Iters + setup)); served > bound {
		t.Fatalf("%d iterations on %d workers served %d RPCs, bound %d", res.Iters, cfg.Workers, served, bound)
	}
}
