package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// Partitioned execution. A client session splits its graph into per-task
// partitions (session.Partition); each task registers a partition once,
// under the content hash of its GraphDef, and then runs it in one RunGraph
// call per session Run. Only the tensors that cross partitions travel.

// maxGraphs bounds the partitions one task keeps registered. The least
// recently run is evicted first; its client re-registers it on demand.
const maxGraphs = 256

// errUnknownGraph answers RunGraph on a handle the task does not hold: the
// task restarted or evicted it. The client re-registers and retries once.
var errUnknownGraph = errors.New("cluster: graph not registered")

// isUnknownGraph reports whether a RunGraph call failed with errUnknownGraph
// on the remote task.
func isUnknownGraph(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, errUnknownGraph.Error())
}

// graphStore is a task's bounded set of registered partitions, each bound
// to the task's resources through its own session.
type graphStore struct {
	mu   sync.Mutex
	tick uint64
	m    map[string]*registered
}

type registered struct {
	sess *session.Session
	used uint64
}

func (gs *graphStore) get(key string) *session.Session {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	r := gs.m[key]
	if r == nil {
		return nil
	}
	gs.tick++
	r.used = gs.tick
	return r.sess
}

func (gs *graphStore) put(key string, sess *session.Session) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.m == nil {
		gs.m = make(map[string]*registered)
	}
	if _, ok := gs.m[key]; !ok && len(gs.m) >= maxGraphs {
		oldest, min := "", ^uint64(0)
		for k, r := range gs.m {
			if r.used < min {
				oldest, min = k, r.used
			}
		}
		delete(gs.m, oldest)
	}
	gs.tick++
	gs.m[key] = &registered{sess: sess, used: gs.tick}
}

// graphKey is the registration handle of a GraphDef.
func graphKey(def []byte) string {
	sum := sha256.Sum256(def)
	return hex.EncodeToString(sum[:])
}

// handleRegisterGraph binds a partition's GraphDef (the whole request body)
// to this task's resources and answers its handle. Registering the same
// bytes again refreshes the entry.
func (s *Server) handleRegisterGraph(req []byte) ([]byte, error) {
	g, err := graph.UnmarshalGraph(req)
	if err != nil {
		return nil, err
	}
	sess, err := session.New(g, s.Res, session.Options{})
	if err != nil {
		return nil, err
	}
	key := graphKey(req)
	s.graphs.put(key, sess)
	return []byte(key), nil
}

// runGraphRequest is a decoded RunGraph call.
type runGraphRequest struct {
	handle  string
	feeds   map[string]*tensor.Tensor
	fetches []string
	targets []string
}

// RunGraph request encoding:
//
//	1 handle, 2 repeated feed {1 name, 2 tensor bytes},
//	3 repeated fetch name, 4 repeated target name
//
// Response: repeated field 1 tensor bytes, in fetch order.
func encodeRunGraph(handle string, feeds map[string]*tensor.Tensor, fetches, targets []string) ([]byte, error) {
	e := wire.NewEncoder()
	e.String(1, handle)
	for name, t := range feeds {
		tb, err := t.Encode(nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: feed %q: %w", name, err)
		}
		e.Message(2, func(fe *wire.Encoder) {
			fe.String(1, name)
			fe.BytesField(2, tb)
		})
	}
	for _, f := range fetches {
		e.String(3, f)
	}
	for _, t := range targets {
		e.String(4, t)
	}
	return e.Bytes(), nil
}

func decodeRunGraph(req []byte) (*runGraphRequest, error) {
	r := &runGraphRequest{feeds: make(map[string]*tensor.Tensor)}
	d := wire.NewDecoder(req)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			if r.handle, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 2:
			fb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			name, t, err := decodeFeed(fb)
			if err != nil {
				return nil, err
			}
			r.feeds[name] = t
		case 3:
			s, err := d.StringVal()
			if err != nil {
				return nil, err
			}
			r.fetches = append(r.fetches, s)
		case 4:
			s, err := d.StringVal()
			if err != nil {
				return nil, err
			}
			r.targets = append(r.targets, s)
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	if r.handle == "" {
		return nil, fmt.Errorf("cluster: malformed RunGraph: no handle")
	}
	return r, nil
}

func decodeFeed(buf []byte) (string, *tensor.Tensor, error) {
	var name string
	var t *tensor.Tensor
	d := wire.NewDecoder(buf)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return "", nil, err
		}
		switch f {
		case 1:
			if name, err = d.StringVal(); err != nil {
				return "", nil, err
			}
		case 2:
			tb, err := d.Bytes()
			if err != nil {
				return "", nil, err
			}
			if t, _, err = tensor.Decode(tb); err != nil {
				return "", nil, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return "", nil, err
			}
		}
	}
	if name == "" || t == nil {
		return "", nil, fmt.Errorf("cluster: malformed RunGraph feed")
	}
	return name, t, nil
}

// handleRunGraph runs one registered partition under the caller's deadline
// and trace context.
func (s *Server) handleRunGraph(ctx context.Context, req []byte) ([]byte, error) {
	r, err := decodeRunGraph(req)
	if err != nil {
		return nil, err
	}
	sess := s.graphs.get(r.handle)
	if sess == nil {
		return nil, fmt.Errorf("%w: %s", errUnknownGraph, r.handle)
	}
	outs, err := sess.RunContext(ctx, r.feeds, r.fetches, r.targets)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder()
	var buf []byte
	for _, t := range outs {
		if buf, err = t.Encode(buf[:0]); err != nil {
			return nil, err
		}
		e.BytesField(1, buf)
	}
	return e.Bytes(), nil
}

// RunPartition implements session.Remote: it registers the partition on
// its task the first time this client runs it there, then runs it in one
// RunGraph call. A task that answers errUnknownGraph (restarted, or evicted
// the partition) gets it registered again and the call retried once.
func (p *Peers) RunPartition(ctx context.Context, part *session.Partition, feeds map[string]*tensor.Tensor,
	fetches, targets []string) ([]*tensor.Tensor, error) {
	addr, c, err := p.dial(part.Device.Job, part.Device.Task)
	if err != nil {
		return nil, err
	}
	req, err := encodeRunGraph(part.Key, feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	regKey := addr + "\x00" + part.Key
	p.mu.Lock()
	known := p.registered[regKey]
	p.mu.Unlock()
	var resp []byte
	for attempt := 0; ; attempt++ {
		if !known {
			if err := p.register(ctx, c, regKey, part); err != nil {
				return nil, err
			}
			known = true
		}
		resp, err = c.CallContext(ctx, "RunGraph", req)
		if err == nil {
			break
		}
		if attempt > 0 || !isUnknownGraph(err) {
			return nil, err
		}
		known = false
	}
	outs := make([]*tensor.Tensor, 0, len(fetches))
	d := wire.NewDecoder(resp)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return nil, err
		}
		if f != 1 {
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		tb, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		t, _, err := tensor.Decode(tb)
		if err != nil {
			return nil, err
		}
		outs = append(outs, t)
	}
	return outs, nil
}

func (p *Peers) register(ctx context.Context, c *rpc.Client, regKey string, part *session.Partition) error {
	key, err := c.CallContext(ctx, "RegisterGraph", part.Def)
	if err != nil {
		return fmt.Errorf("cluster: RegisterGraph %s: %w", part.Name(), err)
	}
	if string(key) != part.Key {
		return fmt.Errorf("cluster: RegisterGraph %s: task answered handle %.12s, want %.12s",
			part.Name(), key, part.Key)
	}
	p.mu.Lock()
	p.registered[regKey] = true
	p.mu.Unlock()
	return nil
}
