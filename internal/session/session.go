// Package session executes dataflow graphs: the tf.Session analogue. A
// session binds a graph to a set of local resources (variables, queues) and
// runs fetch/feed requests through a parallel topological executor that
// dispatches independent ops concurrently — the property the paper
// highlights as a core advantage of dataflow computing.
//
// Ops placed on remote jobs/tasks are grouped into per-task partitions
// (partition.go), each run in one call per Run through a Remote
// (implemented over TCP RPC by internal/cluster), so the same session code
// drives single-process and distributed executions.
package session

import (
	"context"
	"fmt"
	"io"
	"sync"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/queue"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
	"tfhpc/internal/timeline"
	"tfhpc/internal/vars"
)

// Resources is the stateful backing of one task: its variables, queues and
// collective-group memberships.
type Resources struct {
	Vars   *vars.Store
	Queues *queue.Registry
	Colls  *CollStore
}

// NewResources allocates empty stores.
func NewResources() *Resources {
	return &Resources{Vars: vars.NewStore(), Queues: queue.NewRegistry(), Colls: NewCollStore()}
}

// Variable implements ops.Resources.
func (r *Resources) Variable(name string) (ops.VariableHandle, error) {
	return r.Vars.Get(name), nil
}

// Queue implements ops.Resources.
func (r *Resources) Queue(name string, capacity int) (ops.QueueHandle, error) {
	return r.Queues.Get(name, capacity), nil
}

// Collective implements ops.Resources.
func (r *Resources) Collective(name string) (ops.CollectiveHandle, error) {
	return r.Colls.Get(name)
}

// CollStore is the task's registry of collective-group memberships. Unlike
// variables and queues, groups are not created on first use: membership
// needs a transport endpoint (rank, peers), so the runtime — cluster servers
// on CollInit, in-process apps directly — registers handles explicitly.
type CollStore struct {
	mu sync.Mutex
	m  map[string]ops.CollectiveHandle
}

// NewCollStore returns an empty registry.
func NewCollStore() *CollStore {
	return &CollStore{m: make(map[string]ops.CollectiveHandle)}
}

// Register installs (or replaces) the named group membership. A replaced
// handle is closed if it implements io.Closer.
func (s *CollStore) Register(name string, h ops.CollectiveHandle) {
	s.mu.Lock()
	old := s.m[name]
	s.m[name] = h
	s.mu.Unlock()
	if c, ok := old.(io.Closer); ok && old != nil {
		c.Close()
	}
}

// Get resolves a registered group membership.
func (s *CollStore) Get(name string) (ops.CollectiveHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("session: no collective group %q registered on this task", name)
	}
	return h, nil
}

// Close removes and closes one registered membership (no-op if absent) —
// the remote-abort path: poisoning a group's transport errors out any rank
// blocked inside one of its collectives.
func (s *CollStore) Close(name string) {
	s.mu.Lock()
	h := s.m[name]
	delete(s.m, name)
	s.mu.Unlock()
	if c, ok := h.(io.Closer); ok && h != nil {
		c.Close()
	}
}

// CloseAll closes every registered handle that implements io.Closer and
// empties the store — used at server teardown so ranks blocked inside a
// collective fail fast instead of stalling shutdown.
func (s *CollStore) CloseAll() {
	s.mu.Lock()
	m := s.m
	s.m = make(map[string]ops.CollectiveHandle)
	s.mu.Unlock()
	for _, h := range m {
		if c, ok := h.(io.Closer); ok {
			c.Close()
		}
	}
}

// Remote runs graph partitions on the tasks they are placed on;
// internal/cluster implements it over RPC.
type Remote interface {
	// RunPartition executes p on its task: feeds bind the partition's cut
	// inputs, fetches name the members whose values come back (in order)
	// and targets name the members run for effect only.
	RunPartition(ctx context.Context, p *Partition, feeds map[string]*tensor.Tensor,
		fetches, targets []string) ([]*tensor.Tensor, error)
}

// Options configures a session.
type Options struct {
	// LocalJob/LocalTask identify this process within a cluster; ops whose
	// device spec names another job/task run in partitions on that task
	// through Remote. An empty LocalJob treats every op as local.
	LocalJob  string
	LocalTask int
	// Remote runs non-local partitions; required only in distributed runs.
	Remote Remote
	// Trace, when non-nil, records one span per local op and one per remote
	// partition run (TensorFlow Timeline).
	Trace *timeline.Trace
	// Parallelism bounds concurrent dispatch of local ops and remote
	// partitions; 0 = unlimited (the executor is already throttled by
	// dependencies; kernels self-limit to NumCPU).
	//
	// Caution: collective kernels (AllReduce, AllReduceFused, ...) block
	// inside the executor until peer ranks issue the matching call, and the
	// executor seeds ready nodes in nondeterministic order — so a graph
	// with K independent collective nodes needs Parallelism 0 or >= K on
	// every rank, or two ranks can each fill all their slots with
	// collectives the other has not dispatched yet and deadlock. Leave it 0
	// for graphs that use collectives (the default everywhere in this
	// repo).
	Parallelism int
}

// maxPlans bounds a session's cache of execution plans (one per distinct
// feed/fetch/target signature); a full cache is dropped and refilled.
const maxPlans = 64

// Session executes a fixed graph repeatedly.
type Session struct {
	g    *graph.Graph
	res  *Resources
	opts Options

	mu    sync.Mutex
	plans map[string]*plan
}

// New validates the graph and binds it to resources. A nil res allocates
// fresh local stores.
func New(g *graph.Graph, res *Resources, opts Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if res == nil {
		res = NewResources()
	}
	return &Session{g: g, res: res, opts: opts, plans: make(map[string]*plan)}, nil
}

// Resources exposes the session's stateful backing (for checkpointing).
func (s *Session) Resources() *Resources { return s.res }

// Graph returns the bound graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Run evaluates the named fetches (returned in order) after executing the
// named targets (run for effect only), with feeds overriding node outputs.
// It is the equivalent of sess.run(fetches, feed_dict) — including the
// paper's STREAM trick of passing an op as a target with no fetches so that
// no tensor value is returned to the client.
func (s *Session) Run(feeds map[string]*tensor.Tensor, fetches, targets []string) ([]*tensor.Tensor, error) {
	return s.RunContext(context.Background(), feeds, fetches, targets)
}

// RunContext is Run bounded by ctx: no op or partition starts after ctx is
// done, and ctx (its deadline and trace span) rides every remote partition
// call.
func (s *Session) RunContext(ctx context.Context, feeds map[string]*tensor.Tensor, fetches, targets []string) ([]*tensor.Tensor, error) {
	p, err := s.planFor(feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	exec := &execution{
		sess:    s,
		ctx:     ctx,
		plan:    p,
		feeds:   feeds,
		results: make([]*tensor.Tensor, s.g.NumNodes()),
		pending: make([]int, len(p.units)),
		scratch: ops.NewScratch(),
	}
	if err := exec.run(); err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(p.fetches))
	for i, n := range p.fetches {
		v := exec.results[n.ID()]
		if v == nil {
			return nil, fmt.Errorf("session: fetch %q produced no value", n.Name())
		}
		out[i] = v
	}
	return out, nil
}

// execution is the per-Run state of the parallel executor: it dispatches
// the plan's units (local ops and remote partitions) as their dependencies
// resolve.
type execution struct {
	sess    *Session
	ctx     context.Context
	plan    *plan
	feeds   map[string]*tensor.Tensor
	scratch *ops.Scratch

	mu      sync.Mutex
	results []*tensor.Tensor // by node id
	pending []int            // unresolved dependencies, by unit
	err     error
}

func (e *execution) setErr(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *execution) run() error {
	p := e.plan
	for _, n := range p.fed {
		e.results[n.ID()] = e.feeds[n.Name()]
	}
	for i, u := range p.units {
		e.pending[i] = u.ndeps
	}

	var wg sync.WaitGroup
	var sem chan struct{}
	if par := e.sess.opts.Parallelism; par > 0 {
		sem = make(chan struct{}, par)
	}
	var dispatch func(u *unit)
	dispatch = func(u *unit) {
		defer wg.Done()
		if sem != nil {
			sem <- struct{}{}
			defer func() { <-sem }()
		}
		e.mu.Lock()
		failed := e.err != nil
		e.mu.Unlock()
		if failed {
			return
		}
		if err := e.ctx.Err(); err != nil {
			e.setErr(err)
			return
		}
		if err := e.runUnit(u); err != nil {
			e.setErr(err)
			return
		}
		var ready []*unit
		e.mu.Lock()
		for _, s := range u.succs {
			e.pending[s]--
			if e.pending[s] == 0 {
				ready = append(ready, p.units[s])
			}
		}
		e.mu.Unlock()
		for _, r := range ready {
			wg.Add(1)
			go dispatch(r)
		}
	}
	for _, i := range p.seeds {
		wg.Add(1)
		go dispatch(p.units[i])
	}
	wg.Wait()
	return e.err
}

// runUnit executes one local op in-process, or one remote partition in a
// single call to its task.
func (e *execution) runUnit(u *unit) error {
	opts := &e.sess.opts
	var start float64
	if opts.Trace != nil {
		start = opts.Trace.Now()
	}
	var err error
	if u.part != nil {
		err = e.runPartition(u)
	} else {
		err = e.runLocal(u.node)
	}
	if opts.Trace != nil {
		name, op, dev := u.traceLabels()
		opts.Trace.AddSpan(name, op, dev, start, opts.Trace.Now())
	}
	return err
}

func (e *execution) runLocal(n *graph.Node) error {
	inputs := make([]*tensor.Tensor, len(n.Inputs()))
	inputNames := make([]string, len(n.Inputs()))
	e.mu.Lock()
	for i, in := range n.Inputs() {
		inputs[i] = e.results[in.ID()]
		inputNames[i] = in.Name()
	}
	e.mu.Unlock()
	ctx := &ops.Context{
		NodeName:   n.Name(),
		Attrs:      n.Attrs(),
		InputNames: inputNames,
		Resources:  e.sess.res,
		Scratch:    e.scratch,
	}
	out, err := ops.Run(n.Op(), ctx, inputs)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.results[n.ID()] = out
	e.mu.Unlock()
	return nil
}

func (e *execution) runPartition(u *unit) error {
	feeds := make(map[string]*tensor.Tensor, len(u.cuts))
	e.mu.Lock()
	for _, c := range u.cuts {
		feeds[c.Name()] = e.results[c.ID()]
	}
	e.mu.Unlock()
	// A traced caller gets one span per partition run, parenting the call.
	span := telemetry.SpanFromContext(e.ctx).Child("session_partition").Arg("partition", u.part.Name())
	outs, err := e.sess.opts.Remote.RunPartition(telemetry.ContextWith(e.ctx, span),
		u.part, feeds, u.fetchNames, u.targets)
	span.End()
	if err != nil {
		return fmt.Errorf("session: partition %s: %w", u.part.Name(), err)
	}
	if len(outs) != len(u.outs) {
		return fmt.Errorf("session: partition %s returned %d tensors, want %d",
			u.part.Name(), len(outs), len(u.outs))
	}
	e.mu.Lock()
	for i, n := range u.outs {
		e.results[n.ID()] = outs[i]
	}
	e.mu.Unlock()
	return nil
}
