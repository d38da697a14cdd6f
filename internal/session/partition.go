package session

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
)

// Partitioning. A Run's needed nodes split into units the executor
// dispatches as their dependencies resolve: every local op is its own unit,
// and the remote ops form one unit per (task, level). A node's level is the
// maximum over its data and control inputs of the input's level, plus one
// when the input sits on a different task (the client counts as a task).
// Every cross-task edge therefore raises the level, so two nodes share a
// partition only if no path between them leaves their task, and the units
// form a DAG. A node whose consumers all sit at higher levels moves up to
// the latest level they allow, which keeps that rule on every edge. Fed nodes are sources: their values are known before any unit
// runs, and a partition that consumes one receives it as a cut input.
//
// Grouping is by level, not just by task, so a partition never waits on
// itself: a client op between two of a task's ops splits them into two
// partitions run in order. What grouping does serialize is a blocking op
// whose unblocking work depends on a sibling's output through another task
// (a Dequeue waiting on an Enqueue fed by a client op that reads from the
// Dequeue's partition): that graph deadlocks, where per-node dispatch would
// not.

// Partition is one remote unit of a plan: the needed nodes placed on one
// task at one level, as a standalone GraphDef. A member's input produced
// outside the partition (a cut input) appears as a Placeholder that keeps
// the producer's name.
type Partition struct {
	// Device names the task (job and task index only).
	Device graph.DeviceSpec
	// Level is the partition's level on its task.
	Level int
	// Def is the partition's GraphDef (graph.MarshalGraph).
	Def []byte
	// Key is the hex SHA-256 of Def: the handle a task registers it under.
	Key string

	name string
}

// Name labels the partition in errors and timelines.
func (p *Partition) Name() string { return p.name }

// plan is a Run signature's compiled schedule, cached per session.
type plan struct {
	units   []*unit
	seeds   []int         // units with no dependencies
	fed     []*graph.Node // nodes bound from feeds
	fetches []*graph.Node
}

// unit is one dispatchable step: a local op or a remote partition.
type unit struct {
	node *graph.Node // local op; nil for a partition

	part       *Partition
	cuts       []*graph.Node // producers outside the partition it consumes
	outs       []*graph.Node // members whose values come back
	fetchNames []string      // names of outs
	targets    []string      // members run for effect only

	succs []int
	ndeps int
}

func (u *unit) traceLabels() (name, op, dev string) {
	if u.part != nil {
		return u.part.Name(), "RunGraph", u.part.Device.String()
	}
	dev = u.node.Device().String()
	if dev == "" {
		dev = "/device:CPU:0"
	}
	return u.node.Name(), u.node.Op(), dev
}

// place is a node's task: the zero value is this process.
type place struct {
	job  string
	task int
}

func (s *Session) placeOf(n *graph.Node) place {
	d := n.Device()
	if s.opts.LocalJob == "" || d.IsLocalTo(s.opts.LocalJob, s.opts.LocalTask) {
		return place{}
	}
	if d.Task < 0 {
		return place{job: d.Job}
	}
	return place{job: d.Job, task: d.Task}
}

// hop is 1 when an edge from producer to consumer crosses tasks.
func (s *Session) hop(producer, consumer *graph.Node) int {
	if s.placeOf(producer) != s.placeOf(consumer) {
		return 1
	}
	return 0
}

// planFor returns the cached plan for a Run signature, building it on first
// use.
func (s *Session) planFor(feeds map[string]*tensor.Tensor, fetches, targets []string) (*plan, error) {
	names := make([]string, 0, len(feeds))
	for name := range feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	key := strings.Join(names, ",") + "\x00" + strings.Join(fetches, ",") + "\x00" + strings.Join(targets, ",")
	s.mu.Lock()
	p := s.plans[key]
	s.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := s.buildPlan(feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if len(s.plans) >= maxPlans {
		clear(s.plans)
	}
	s.plans[key] = p
	s.mu.Unlock()
	return p, nil
}

func (s *Session) buildPlan(feeds map[string]*tensor.Tensor, fetches, targets []string) (*plan, error) {
	resolve := func(name string) (*graph.Node, error) {
		n := s.g.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("session: no node named %q", name)
		}
		return n, nil
	}
	p := &plan{fetches: make([]*graph.Node, len(fetches))}
	var roots []*graph.Node
	for i, f := range fetches {
		n, err := resolve(f)
		if err != nil {
			return nil, err
		}
		p.fetches[i] = n
		roots = append(roots, n)
	}
	for _, t := range targets {
		n, err := resolve(t)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("session: Run needs at least one fetch or target")
	}
	for name := range feeds {
		if _, err := resolve(name); err != nil {
			return nil, err
		}
	}
	fed := func(n *graph.Node) bool { _, ok := feeds[n.Name()]; return ok }

	// Depth-first over the needed subgraph: the post-order is topological,
	// and each node's level is known once its inputs are visited. A fed
	// node's inputs still run (they are needed), but do not order it.
	level := make(map[int]int)
	consumers := make(map[int][]*graph.Node)
	var order []*graph.Node
	var visit func(n *graph.Node)
	visit = func(n *graph.Node) {
		if _, seen := level[n.ID()]; seen {
			return
		}
		level[n.ID()] = 0
		lvl := 0
		for _, in := range deps(n) {
			visit(in)
			if fed(n) || fed(in) {
				continue
			}
			consumers[in.ID()] = append(consumers[in.ID()], n)
			lvl = max(lvl, level[in.ID()]+s.hop(in, n))
		}
		level[n.ID()] = lvl
		order = append(order, n)
	}
	for _, r := range roots {
		visit(r)
	}
	// Then, in reverse, raise each consumed node to the latest level its
	// consumers allow. Every edge keeps its rule, and a source (a variable,
	// a constant) joins the partition of the same-task op that reads it
	// rather than forming one of its own.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if cs := consumers[n.ID()]; len(cs) > 0 {
			late := level[cs[0].ID()] - s.hop(n, cs[0])
			for _, c := range cs[1:] {
				late = min(late, level[c.ID()]-s.hop(n, c))
			}
			level[n.ID()] = late
		}
	}

	// Units: one per local op, one per remote (task, level).
	type groupKey struct {
		place
		level int
	}
	unitOf := make(map[int]int)
	groups := make(map[groupKey]int)
	members := make(map[int][]*graph.Node)
	for _, n := range order {
		if fed(n) {
			p.fed = append(p.fed, n)
			continue
		}
		pl := s.placeOf(n)
		if pl == (place{}) {
			unitOf[n.ID()] = len(p.units)
			p.units = append(p.units, &unit{node: n})
			continue
		}
		if s.opts.Remote == nil {
			return nil, fmt.Errorf("session: node %q placed on %v but no remote runner configured",
				n.Name(), n.Device())
		}
		k := groupKey{pl, level[n.ID()]}
		i, ok := groups[k]
		if !ok {
			i = len(p.units)
			groups[k] = i
			dev := graph.DeviceSpec{Job: pl.job, Task: pl.task, DeviceIndex: -1}
			p.units = append(p.units, &unit{part: &Partition{
				Device: dev,
				Level:  k.level,
				name:   fmt.Sprintf("%s/level:%d", dev, k.level),
			}})
		}
		unitOf[n.ID()] = i
		members[i] = append(members[i], n)
	}

	// Unit edges, and the partition members whose values leave their unit.
	exported := make(map[int]bool)
	edges := make(map[[2]int]bool)
	for _, n := range order {
		if fed(n) {
			continue
		}
		to := unitOf[n.ID()]
		for _, in := range deps(n) {
			if fed(in) {
				continue
			}
			from := unitOf[in.ID()]
			if from == to || edges[[2]int{from, to}] {
				continue
			}
			edges[[2]int{from, to}] = true
			p.units[from].succs = append(p.units[from].succs, to)
			p.units[to].ndeps++
		}
		for _, in := range n.Inputs() {
			if !fed(in) && unitOf[in.ID()] != to {
				exported[in.ID()] = true
			}
		}
	}
	for _, n := range p.fetches {
		exported[n.ID()] = true
	}
	for i, u := range p.units {
		if u.ndeps == 0 {
			p.seeds = append(p.seeds, i)
		}
		if u.part != nil {
			if err := u.compile(members[i], exported); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// deps returns a node's data and control inputs.
func deps(n *graph.Node) []*graph.Node {
	if len(n.ControlDeps()) == 0 {
		return n.Inputs()
	}
	return append(append([]*graph.Node(nil), n.Inputs()...), n.ControlDeps()...)
}

// compile builds the partition's GraphDef from its members (in topological
// order) and fills in its cut inputs, returned members and targets.
func (u *unit) compile(members []*graph.Node, exported map[int]bool) error {
	sub := graph.New()
	mapped := make(map[int]*graph.Node, len(members))
	consumed := make(map[int]bool)
	for _, m := range members {
		ins := make([]*graph.Node, len(m.Inputs()))
		for i, in := range m.Inputs() {
			if sn, ok := mapped[in.ID()]; ok {
				ins[i] = sn
				consumed[in.ID()] = true
				continue
			}
			if sn := sub.Lookup(in.Name()); sn != nil {
				ins[i] = sn
				continue
			}
			ins[i] = sub.AddNamedOp(in.Name(), "Placeholder", nil)
			u.cuts = append(u.cuts, in)
		}
		sn := sub.AddNamedOp(m.Name(), m.Op(), m.Attrs(), ins...)
		sn.SetDevice(m.Device())
		for _, c := range m.ControlDeps() {
			if cn, ok := mapped[c.ID()]; ok {
				sn.AddControlDep(cn)
				consumed[c.ID()] = true
			}
		}
		mapped[m.ID()] = sn
	}
	for _, m := range members {
		switch {
		case exported[m.ID()]:
			u.outs = append(u.outs, m)
			u.fetchNames = append(u.fetchNames, m.Name())
		case !consumed[m.ID()]:
			u.targets = append(u.targets, m.Name())
		}
	}
	def, err := graph.MarshalGraph(sub)
	if err != nil {
		return fmt.Errorf("session: partition %s: %w", u.part.Name(), err)
	}
	sum := sha256.Sum256(def)
	u.part.Def = def
	u.part.Key = hex.EncodeToString(sum[:])
	return nil
}
