package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"tfhpc/apps/cg"
	appfft "tfhpc/apps/fft"
	"tfhpc/apps/matmul"
	"tfhpc/internal/cluster"
	"tfhpc/internal/collective"
	"tfhpc/internal/core"
	"tfhpc/internal/fft"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// The paper's three apps at the benchmark's sizes.
var (
	cgCfg     = cg.Config{N: 512, Workers: 2, MaxIters: 1000}
	matmulCfg = matmul.Config{N: 2048, Tile: 512, Workers: 2, Reducers: 2}
	fftCfg    = appfft.Config{N: 1 << 22, Tiles: 16, Workers: 2}
)

const (
	// cgShift makes the CG matrix the dense shifted 1-D Laplacian
	// tridiag(−1, 2+σ, −1): condition number about 4/σ, so a solve to
	// ‖r‖ ≤ 1e-8‖b‖ takes 83-84 iterations at n=512.
	cgShift  = 0.05
	cgRelTol = 1e-8
)

// laplacian builds the dense CG matrix.
func laplacian(n int) *tensor.Tensor {
	a := tensor.New(tensor.Float64, n, n)
	d := a.F64()
	for i := 0; i < n; i++ {
		d[i*n+i] = 2 + cgShift
		if i > 0 {
			d[i*n+i-1] = -1
		}
		if i+1 < n {
			d[i*n+i+1] = -1
		}
	}
	return a
}

func randF64(seed uint64, n int) []float64 {
	r := tensor.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	return v
}

func randF32(seed uint64, n int) []float32 {
	r := tensor.NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Float32()*2 - 1
	}
	return v
}

func randC128(seed uint64, n int) []complex128 {
	r := tensor.NewRNG(seed)
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return v
}

func norm(v []float64) float64 { return math.Sqrt(gemm.Dot64(v, v)) }

// sampleCG reads the CG tasks' meters and this process's /proc: this
// process ships every op's inputs, so its writes are part of the wire.
func sampleCG(st *stack) (meters, procSample, error) {
	tm, err := sample(st.tasks[0], st.tasks[1])
	if err != nil {
		return tm, procSample{}, err
	}
	self, err := readProc(os.Getpid())
	return tm, self, err
}

// runHPC runs hpcRounds rounds of CG, matmul and FFT jobs back to back,
// each on fresh seeded inputs, and verifies every result after its timed
// call.
func runHPC(st *stack, p *plan, rep *report, tr *tracer) error {
	dir := filepath.Join(p.work, "hpc")
	peers := cluster.NewPeers(st.spec())
	defer peers.Close()
	a := laplacian(cgCfg.N)

	var cgWall, cgSolve, cgIters, mmWall, fftWall, fftCollect, fftMerge []float64
	var cgCPU, mmCPU, fftCPU []float64
	var wire, calls, arCount, arSecs float64
	for round := 0; round < hpcRounds; round++ {
		// CG on the two tasks.
		b := tensor.FromF64(tensor.Shape{cgCfg.N}, randF64(p.hpcSeed("cg", round), cgCfg.N))
		cfg := cgCfg
		cfg.Tol = cgRelTol * norm(b.F64())
		var before meters
		var selfBefore procSample
		if tr != nil {
			var err error
			if before, selfBefore, err = sampleCG(st); err != nil {
				return err
			}
		}
		// Each job starts from a collected heap with its free pages handed
		// back to the OS: no GC cycle owed to an earlier job's garbage runs
		// inside its timed call, and every job faults its memory in afresh
		// rather than reusing what the background scavenger happened to
		// leave mapped.
		debug.FreeOSMemory()
		rep.attempted++
		c0, err := cpuTime(st.tasks[0], st.tasks[1])
		if err != nil {
			return err
		}
		span := telemetry.StartRoot("bench/cg.RunCluster")
		t0 := time.Now()
		res, err := cg.RunCluster(cfg, a, b, peers, cg.ClusterOptions{})
		wall := time.Since(t0).Seconds()
		span.End()
		if err != nil {
			return fmt.Errorf("cg.RunCluster: %w", err)
		}
		c1, err := cpuTime(st.tasks[0], st.tasks[1])
		if err != nil {
			return err
		}
		cgCPU = append(cgCPU, (c1 - c0).Seconds())
		if tr != nil {
			after, selfAfter, err := sampleCG(st)
			if err != nil {
				return err
			}
			wire += float64(selfAfter.wchar - selfBefore.wchar)
			for i := range after.procs {
				wire += float64(after.procs[i].wchar - before.procs[i].wchar)
			}
			for i := range after.m {
				calls += delta(before.m[i], after.m[i], "tfhpc_rpc_served_total")
				arCount += delta(before.m[i], after.m[i], "tfhpc_collective_allreduce_seconds_count")
				arSecs += delta(before.m[i], after.m[i], "tfhpc_collective_allreduce_seconds_sum")
			}
		}
		cgWall = append(cgWall, wall)
		cgSolve = append(cgSolve, res.Seconds)
		cgIters = append(cgIters, float64(res.Iters))
		if err := verifyCG(cfg, a, b, res, rep); err != nil {
			return err
		}

		// Tiled matmul; the timed call includes tile pre-processing.
		ma := tensor.FromF32(tensor.Shape{matmulCfg.N, matmulCfg.N}, randF32(p.hpcSeed("matmul-a", round), matmulCfg.N*matmulCfg.N))
		mb := tensor.FromF32(tensor.Shape{matmulCfg.N, matmulCfg.N}, randF32(p.hpcSeed("matmul-b", round), matmulCfg.N*matmulCfg.N))
		mdir := filepath.Join(dir, fmt.Sprintf("matmul%d", round))
		debug.FreeOSMemory()
		rep.attempted++
		if c0, err = cpuTime(); err != nil {
			return err
		}
		span = telemetry.StartRoot("bench/matmul.RunReal")
		t0 = time.Now()
		mres, err := matmul.RunReal(mdir, matmulCfg, ma, mb)
		wall = time.Since(t0).Seconds()
		span.End()
		if err != nil {
			return fmt.Errorf("matmul.RunReal: %w", err)
		}
		if c1, err = cpuTime(); err != nil {
			return err
		}
		mmCPU = append(mmCPU, (c1 - c0).Seconds())
		mmWall = append(mmWall, wall)
		verifyMatmul(ma, mb, mres.C, rep)
		if err := os.RemoveAll(mdir); err != nil {
			return err
		}

		// Distributed FFT.
		sig := randC128(p.hpcSeed("fft", round), fftCfg.N)
		fdir := filepath.Join(dir, fmt.Sprintf("fft%d", round))
		debug.FreeOSMemory()
		rep.attempted++
		if c0, err = cpuTime(); err != nil {
			return err
		}
		span = telemetry.StartRoot("bench/fft.RunReal")
		t0 = time.Now()
		fres, err := appfft.RunReal(fdir, fftCfg, sig)
		wall = time.Since(t0).Seconds()
		span.End()
		if err != nil {
			return fmt.Errorf("fft.RunReal: %w", err)
		}
		if c1, err = cpuTime(); err != nil {
			return err
		}
		fftCPU = append(fftCPU, (c1 - c0).Seconds())
		fftWall = append(fftWall, wall)
		fftCollect = append(fftCollect, fres.CollectSeconds)
		fftMerge = append(fftMerge, fres.MergeSeconds)
		if err := verifyFFT(sig, fres.X, rep); err != nil {
			return err
		}
		if err := os.RemoveAll(fdir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: hpc round %d: cg %.3fs (cpu %.3fs) matmul %.3fs (cpu %.3fs) fft %.3fs (cpu %.3fs)\n",
			round, cgWall[round], cgCPU[round], mmWall[round], mmCPU[round], fftWall[round], fftCPU[round])
	}

	n := float64(matmulCfg.N)
	fn := float64(fftCfg.N)
	// End to end, a job costs the CPU time of every process working on it:
	// this one, plus the two tasks for CG. The kernel leaves out the time
	// the hypervisor steals, which on a shared host moves a job's wall time
	// by up to a third from run to run; CG's most, since each iteration
	// waits on all three processes in turn. The wall-clock figures are
	// reported per layer.
	rep.set("cg_cpu_s", "s", median(cgCPU))
	rep.set("matmul_cpu_s", "s", median(mmCPU))
	rep.set("fft_cpu_s", "s", median(fftCPU))
	rep.set("cg_solve_s", "s", median(cgWall))
	rep.set("matmul_gflops", "Gflop/s", 2*n*n*n/median(mmWall)/1e9)
	rep.set("fft_gflops", "Gflop/s", 5*fn*math.Log2(fn)/median(fftWall)/1e9)
	if tr == nil {
		return nil
	}

	var iters float64
	for _, it := range cgIters {
		iters += it
	}
	var initS []float64
	for i := range cgWall {
		initS = append(initS, cgWall[i]-cgSolve[i])
	}
	rep.set("cg.iters", "count", median(cgIters))
	rep.set("cg.iter_ms", "ms", 1e3*median(cgSolve)/median(cgIters))
	rep.set("cg.init_s", "s", median(initS))
	rep.set("cluster.wire_bytes_per_iter", "bytes", wire/iters)
	rep.set("rpc.calls_per_iter", "count", calls/iters)
	rep.set("collective.allreduce_ms", "ms", 1e3*arSecs/math.Max(arCount, 1))
	rep.set("collective.allreduce_per_iter", "count", arCount/float64(len(st.tasks))/iters)
	rep.set("fft.collect_s", "s", median(fftCollect))
	rep.set("fft.merge_s", "s", median(fftMerge))
	return hpcLayers(st, p, peers, a, dir, rep, tr)
}

// verifyCG checks the cluster solution against the harness's own residual
// and against the in-process solver on the same decomposition, which must
// produce the same bits.
func verifyCG(cfg cg.Config, a, b *tensor.Tensor, res *cg.RealResult, rep *report) error {
	n := cfg.N
	ax := make([]float64, n)
	gemm.MatVec64(n, n, a.F64(), n, res.X.F64(), ax)
	r := make([]float64, n)
	for i := range r {
		r[i] = b.F64()[i] - ax[i]
	}
	if rn, bn := norm(r), norm(b.F64()); !(rn <= 1e-7*bn) {
		rep.mismatch("cg: ‖b−Ax‖ = %.3g > 1e-7·‖b‖ = %.3g", rn, 1e-7*bn)
		rep.failed++
		return nil
	}
	local, err := cg.RunReal(cfg, a, b, cg.RealOptions{})
	if err != nil {
		return fmt.Errorf("cg.RunReal: %w", err)
	}
	if local.Iters != res.Iters {
		rep.mismatch("cg: cluster took %d iterations, in-process %d", res.Iters, local.Iters)
		rep.failed++
		return nil
	}
	for i, v := range local.X.F64() {
		if math.Float64bits(v) != math.Float64bits(res.X.F64()[i]) {
			rep.mismatch("cg: x[%d] = %v on the cluster, %v in-process", i, res.X.F64()[i], v)
			rep.failed++
			return nil
		}
	}
	return nil
}

// verifyMatmul checks C against a direct gemm product.
func verifyMatmul(a, b, c *tensor.Tensor, rep *report) {
	n := matmulCfg.N
	want := tensor.New(tensor.Float32, n, n)
	gemm.Gemm32(false, false, n, n, n, a.F32(), n, b.F32(), n, want.F32(), n)
	if !c.ApproxEqual(want, 1e-3) {
		rep.mismatch("matmul: C differs from the direct product")
		rep.failed++
	}
}

// verifyFFT checks the pipeline's transform against the planned engine.
func verifyFFT(sig, got []complex128, rep *report) error {
	plan, err := fft.PlanFor(len(sig))
	if err != nil {
		return err
	}
	want := append([]complex128(nil), sig...)
	if err := plan.Transform(want, false); err != nil {
		return err
	}
	var diff, ref float64
	for i := range want {
		d := cmplx.Abs(got[i] - want[i])
		diff += d * d
		ref += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if !(math.Sqrt(diff) <= 1e-10*math.Sqrt(ref)) {
		rep.mismatch("fft: ‖X−engine‖/‖engine‖ = %.3g > 1e-10", math.Sqrt(diff/ref))
		rep.failed++
	}
	return nil
}

// timeMedian calls f reps times and returns the median wall seconds.
func timeMedian(reps int, f func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts), nil
}

// hpcLayers times the layers under the three apps by calling them directly
// at the apps' shapes (traced runs only).
func hpcLayers(st *stack, p *plan, peers *cluster.Peers, a *tensor.Tensor, dir string, rep *report, tr *tracer) error {
	// The plain single-worker solve of the same system: the no-wire floor.
	b := tensor.FromF64(tensor.Shape{cgCfg.N}, randF64(p.hpcSeed("cg", 0), cgCfg.N))
	cfg := cgCfg
	cfg.Workers = 1
	cfg.Tol = cgRelTol * norm(b.F64())
	span := telemetry.StartRoot("bench/cg.RunReal")
	local, err := timeMedian(3, func() error { _, err := cg.RunReal(cfg, a, b, cg.RealOptions{}); return err })
	span.End()
	if err != nil {
		return err
	}
	rep.set("cg.local_solve_s", "s", local)

	// One remote MatVec of a worker's A block, the op a CG iteration ships.
	rows := cgCfg.RowsPerWorker()
	block := tensor.FromF64(tensor.Shape{rows, cgCfg.N}, a.F64()[:rows*cgCfg.N])
	x := tensor.FromF64(tensor.Shape{cgCfg.N}, b.F64())
	dev := graph.DeviceSpec{Job: "worker", Task: 0}
	span = telemetry.StartRoot("bench/cluster.RunRemoteOp")
	remote, err := timeMedian(20, func() error {
		_, err := peers.RunRemoteOp(dev, "MatVec", "bench/matvec", nil, []string{"a", "x"}, []*tensor.Tensor{block, x})
		return err
	})
	span.End()
	if err != nil {
		return fmt.Errorf("RunRemoteOp: %w", err)
	}
	rep.set("cluster.remote_op_ms", "ms", remote*1e3)

	// A one-op local graph: the executor's fixed cost per Run.
	g := graph.New()
	ph := g.Placeholder("x", tensor.Float64, tensor.Shape{cgCfg.N})
	g.AddNamedOp("y", "Dot", nil, ph, ph)
	sess, err := session.New(g, nil, session.Options{})
	if err != nil {
		return err
	}
	feeds := map[string]*tensor.Tensor{"x": x}
	span = telemetry.StartRoot("bench/session.Run")
	run, err := timeMedian(2000, func() error { _, err := sess.Run(feeds, []string{"y"}, nil); return err })
	span.End()
	if err != nil {
		return err
	}
	rep.set("session.run_us", "us", run*1e6)

	// Matmul layers: one tile product, tile pre-processing and loading, and
	// the ReduceScatter + AllGatherV of an N² partial over two ranks.
	t := matmulCfg.Tile
	ta, tb, tc := randF32(1, t*t), randF32(2, t*t), make([]float32, t*t)
	span = telemetry.StartRoot("bench/gemm.Gemm32")
	tile, err := timeMedian(5, func() error { gemm.Gemm32(false, false, t, t, t, ta, t, tb, t, tc, t); return nil })
	span.End()
	if err != nil {
		return err
	}
	rep.set("gemm.tile_gflops", "Gflop/s", gemm.Flops(t, t, t)/tile/1e9)

	n := matmulCfg.N
	m := tensor.FromF32(tensor.Shape{n, n}, randF32(p.hpcSeed("matmul-a", 0), n*n))
	var store *core.TileStore
	span = telemetry.StartRoot("bench/core.SaveMatrixTiles")
	pre, err := timeMedian(3, func() error {
		var err error
		store, err = core.SaveMatrixTiles(filepath.Join(dir, "tiles"), "A", m, t)
		return err
	})
	span.End()
	if err != nil {
		return err
	}
	rep.set("matmul.preprocess_s", "s", 2*pre) // A and B
	span = telemetry.StartRoot("bench/core.LoadTile")
	load, err := timeMedian(store.TilesPerDim*store.TilesPerDim, func() error { _, err := store.LoadTile(1, 2); return err })
	span.End()
	if err != nil {
		return err
	}
	rep.set("core.tile_load_ms", "ms", load*1e3)

	span = telemetry.StartRoot("bench/collective.ReduceScatter+AllGatherV")
	reduce, err := timeMedian(3, func() error { return reduceGather(m) })
	span.End()
	if err != nil {
		return err
	}
	rep.set("collective.reduce_s", "s", reduce)

	// FFT layers: one tile's transform and the interleaved pre-processing.
	tl := fftCfg.TileLen()
	fplan, err := fft.PlanFor(tl)
	if err != nil {
		return err
	}
	buf := randC128(3, tl)
	span = telemetry.StartRoot("bench/fft.Transform")
	kern, err := timeMedian(7, func() error { return fplan.Transform(buf, false) })
	span.End()
	if err != nil {
		return err
	}
	rep.set("fft.kernel_gflops", "Gflop/s", 5*float64(tl)*float64(bits.Len(uint(tl))-1)/kern/1e9)
	sig := randC128(p.hpcSeed("fft", 0), fftCfg.N)
	span = telemetry.StartRoot("bench/core.SaveInterleavedTiles")
	fpre, err := timeMedian(3, func() error {
		_, err := core.SaveInterleavedTiles(filepath.Join(dir, "ftiles"), "x", sig, fftCfg.Tiles)
		return err
	})
	span.End()
	if err != nil {
		return err
	}
	rep.set("fft.preprocess_s", "s", fpre)
	return os.RemoveAll(dir)
}

// reduceGather runs matmul's reduction — ReduceScatter then AllGatherV of
// an N×N f32 partial — on two in-process ranks.
func reduceGather(m *tensor.Tensor) error {
	groups := collective.NewLoopbackGroups(2, collective.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	flat, err := m.Reshape(m.Shape()[0] * m.Shape()[1])
	if err != nil {
		return err
	}
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *collective.Group) {
			defer wg.Done()
			seg, err := g.ReduceScatter("bench/rs", flat, "sum")
			if err == nil {
				_, err = g.AllGatherV("bench/ag", seg)
			}
			errs[i] = err
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
