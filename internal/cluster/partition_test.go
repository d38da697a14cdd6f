package cluster

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

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

// buildSpread builds a graph over the client, /job:ps/task:0 and
// /job:worker/task:0 with cut edges in both directions (ps → worker →
// client → ps), a cross-task control dependency, a feed on the client and
// one on a remote node, and two AssignAdd accumulators (with their Assign
// initialisers). Run for c, d, e, counter and acc, its three remote
// partitions are ps level 0, worker level 1 and ps level 3.
func buildSpread() *graph.Graph {
	g := graph.New()
	x := g.Placeholder("x", tensor.Float64, tensor.Shape{3})
	var a, counter *graph.Node
	g.WithDevice("/job:ps/task:0", func() {
		g.AddNamedOp("init_count", "Assign", graph.Attrs{"var_name": "count"}, g.Const(tensor.ScalarF64(0)))
		g.AddNamedOp("init_acc", "Assign", graph.Attrs{"var_name": "acc"}, g.Const(tensor.New(tensor.Float64, 3)))
		counter = g.AddNamedOp("counter", "AssignAdd", graph.Attrs{"var_name": "count"},
			g.Const(tensor.ScalarF64(1)))
		a = g.AddNamedOp("a", "Mul", nil, x, g.Const(tensor.FromF64(tensor.Shape{3}, []float64{0.1, 0.2, 0.3})))
	})
	var b *graph.Node
	g.WithDevice("/job:worker/task:0", func() {
		y := g.Placeholder("y", tensor.Float64, tensor.Shape{3})
		b = g.AddNamedOp("b", "Add", nil, a, g.Const(tensor.FromF64(tensor.Shape{3}, []float64{1.7, -2.3, 0.9})))
		e := g.AddNamedOp("e", "Mul", nil, y, b)
		e.AddControlDep(counter)
	})
	c := g.AddNamedOp("c", "Neg", nil, b)
	g.WithDevice("/job:ps/task:0", func() {
		d := g.AddNamedOp("d", "Add", nil, c, a)
		g.AddNamedOp("acc", "AssignAdd", graph.Attrs{"var_name": "acc"}, d)
	})
	return g
}

// TestPartitionedRunMatchesLocal runs the spread graph partitioned over a
// two-task cluster and all in one process: every fetch and the final
// variable state must be bit-identical, each stateful node must run exactly
// once per Run, and each Run must cost one RPC per remote partition.
func TestPartitionedRunMatchesLocal(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1, "worker": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()

	dist, err := session.New(buildSpread(), nil, session.Options{LocalJob: "client", Remote: peers})
	if err != nil {
		t.Fatal(err)
	}
	local, err := session.New(buildSpread(), nil, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*session.Session{dist, local} {
		if _, err := sess.Run(nil, nil, []string{"init_count", "init_acc"}); err != nil {
			t.Fatal(err)
		}
	}
	fetches := []string{"c", "d", "e", "counter"}
	const runs, partitions = 4, 3
	for run := 0; run < runs; run++ {
		feeds := map[string]*tensor.Tensor{
			"x": tensor.FromF64(tensor.Shape{3}, []float64{1.5 + float64(run), -0.25, 3}),
			"y": tensor.FromF64(tensor.Shape{3}, []float64{0.5, float64(run), -1.125}),
		}
		before := servedCalls(t)
		got, err := dist.Run(feeds, fetches, []string{"acc"})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		// The first Run also registers each partition.
		want := int64(partitions)
		if run == 0 {
			want *= 2
		}
		if calls := servedCalls(t) - before; calls != want {
			t.Fatalf("run %d served %d RPCs, want %d", run, calls, want)
		}
		ref, err := local.Run(feeds, fetches, []string{"acc"})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range fetches {
			if !bitEqual(got[i], ref[i]) {
				t.Fatalf("run %d: %s = %v partitioned, %v local", run, name, got[i].F64(), ref[i].F64())
			}
		}
		if n := got[3].ScalarFloat(); n != float64(run+1) {
			t.Fatalf("counter = %v after %d runs: a stateful node ran %v times", n, run+1, n)
		}
	}
	for _, v := range []string{"count", "acc"} {
		got, err := lc.Server("ps", 0).Res.Vars.Get(v).Read()
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Resources().Vars.Get(v).Read()
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got, want) {
			t.Fatalf("variable %s = %v on ps, %v local", v, got.F64(), want.F64())
		}
	}
}

func bitEqual(a, b *tensor.Tensor) bool {
	if !a.Shape().Equal(b.Shape()) || len(a.F64()) != len(b.F64()) {
		return false
	}
	for i, v := range a.F64() {
		if math.Float64bits(v) != math.Float64bits(b.F64()[i]) {
			return false
		}
	}
	return true
}

// TestRemoteMultiComponentDequeue dequeues a two-component tuple on a
// remote task and reads its second component there: the dequeue and its
// reader share one partition, hence one Run's scratch space.
func TestRemoteMultiComponentDequeue(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()

	g := graph.New()
	attrs := graph.Attrs{"queue": "pairs", "capacity": 4}
	g.WithDevice("/job:ps/task:0", func() {
		g.AddNamedOp("enq", "QueueEnqueue", attrs,
			g.Const(tensor.ScalarF64(7)), g.Const(tensor.ScalarF64(11)))
		deq := g.AddNamedOp("deq", "QueueDequeue", attrs)
		g.AddNamedOp("second", "DequeueComponent", graph.Attrs{"index": 1}, deq)
	})
	sess, err := session.New(g, nil, session.Options{LocalJob: "client", Remote: peers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil, nil, []string{"enq"}); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []string{"deq", "second"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarFloat() != 7 || out[1].ScalarFloat() != 11 {
		t.Fatalf("dequeued (%v, %v), want (7, 11)", out[0].ScalarFloat(), out[1].ScalarFloat())
	}
}

// sumSession returns a session whose one remote partition adds two
// constants on /job:ps/task:0.
func sumSession(t *testing.T, peers *Peers) *session.Session {
	t.Helper()
	g := graph.New()
	g.WithDevice("/job:ps/task:0", func() {
		g.AddNamedOp("sum", "Add", nil, g.Const(tensor.ScalarF64(2)), g.Const(tensor.ScalarF64(3)))
	})
	sess, err := session.New(g, nil, session.Options{LocalJob: "client", Remote: peers})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// runReregistered runs sess once more after its task lost the partition:
// the Run must succeed through RunGraph (refused), RegisterGraph and
// RunGraph again.
func runReregistered(t *testing.T, sess *session.Session) {
	t.Helper()
	before := servedCalls(t)
	out, err := sess.Run(nil, []string{"sum"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarFloat() != 5 {
		t.Fatalf("sum = %v, want 5", out[0].ScalarFloat())
	}
	if calls := servedCalls(t) - before; calls != 3 {
		t.Fatalf("Run served %d RPCs, want 3 (refused run, register, run)", calls)
	}
}

// TestRunGraphAfterTaskRestart restarts a task on its address between two
// Runs of one session: the new process does not know the partition, so the
// client registers it again and the second Run succeeds.
func TestRunGraphAfterTaskRestart(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	sess := sumSession(t, peers)
	if _, err := sess.Run(nil, []string{"sum"}, nil); err != nil {
		t.Fatal(err)
	}

	addr := lc.Spec()["ps"][0]
	lc.Server("ps", 0).Close()
	srv := NewServer("ps", 0)
	if _, err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	lc.Servers["ps"][0] = srv
	runReregistered(t, sess)
}

// TestRunGraphAfterEviction fills a task's registry past its bound: the
// evicted partition is registered again on its next Run.
func TestRunGraphAfterEviction(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	sess := sumSession(t, peers)
	if _, err := sess.Run(nil, []string{"sum"}, nil); err != nil {
		t.Fatal(err)
	}
	srv := lc.Server("ps", 0)
	for i := 0; i < maxGraphs; i++ {
		srv.graphs.put(strconv.Itoa(i), nil)
	}
	if n := len(srv.graphs.m); n != maxGraphs {
		t.Fatalf("registry holds %d graphs, bound is %d", n, maxGraphs)
	}
	runReregistered(t, sess)
}

// TestRunGraphUnknownHandle: a RunGraph on a handle the task never saw
// fails with the typed error the client retries on.
func TestRunGraphUnknownHandle(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	c, err := peers.client("ps", 0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRunGraph("feedface", nil, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("RunGraph", req); !isUnknownGraph(err) {
		t.Fatalf("want the unknown-graph error, got %v", err)
	}
	if _, err := c.Call("RegisterGraph", []byte{0xff}); err == nil || isUnknownGraph(err) {
		t.Fatalf("want a GraphDef decode error, got %v", err)
	}
}
