package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tfhpc/internal/telemetry"
)

// tracer carries what a traced run's legs hand to the span analysis that
// runs once the servers have dumped their traces.
type tracer struct {
	predict []predictRec
}

// traceEventCap is the per-process event cap of internal/telemetry: events
// past it are dropped, so a dump that reaches it is partial.
const traceEventCap = 1 << 20

// headline is the end-to-end metric telemetry.overhead_ratio compares per
// workload.
var headline = map[string]string{
	legHPC:      "cg_solve_s",
	legPredict:  "http_p50_ms",
	legGenerate: "ttft_p50_ms",
}

// runTraced first runs the workload's own leg untraced, for the overhead
// baseline, then sets up a traced stack (-trace-out on every server,
// telemetry.Enable here) and runs every leg on it, and finally derives the
// per-layer metrics from the counters, /proc meters and span dumps.
func runTraced(o options, p *plan) (*report, error) {
	base := newReport()
	st, err := startStack(o.bin, filepath.Join(o.work, "base"), "", p.modelSeed)
	if err != nil {
		return nil, err
	}
	p.in = p.inputs()
	if err := runLeg(p.main, st, p, base, nil); err != nil {
		st.stop()
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}

	telemetry.Enable()
	traceDir := filepath.Join(o.work, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	st, err = startStack(o.bin, filepath.Join(o.work, "traced"), traceDir, p.modelSeed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	tr := &tracer{}
	for _, leg := range p.legOrder() {
		if err := runLeg(leg, st, p, rep, tr); err != nil {
			st.stop()
			return nil, err
		}
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	if err := telemetry.WriteTraceFile(filepath.Join(traceDir, "perfbench.json")); err != nil {
		return nil, err
	}

	dumps := map[string][]traceEvent{}
	for _, name := range []string{"perfbench", "task0", "task1", "replica0", "replica1", "front", "gen"} {
		evs, err := loadDump(filepath.Join(traceDir, name+".json"))
		if err != nil {
			return nil, err
		}
		dumps[name] = evs
	}
	rep.set("telemetry.dropped_events", "count", 0) // loadDump fails any dump at the cap
	if err := predictSpans(dumps, tr.predict, rep); err != nil {
		return nil, err
	}

	lag := ms(rep.lags)
	rep.set("loadgen.lag_p50_ms", "ms", quantile(lag, 0.5))
	rep.set("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99))
	h := headline[p.main]
	rep.set("telemetry.overhead_ratio", "ratio", rep.metrics[h]/base.metrics[h])

	rep.attempted += base.attempted
	rep.failed += base.failed
	rep.wrong = append(rep.wrong, base.wrong...)
	rep.set("fail_ratio", "ratio", float64(rep.failed)/float64(rep.attempted))
	// Client-side figures too unsteady from run to run on a shared host to
	// bound as end-to-end metrics are still reported from the traced run.
	for e2e, layer := range map[string]string{
		"http_p99_ms":   "serving.http_door_p99_ms",
		"stream_p50_ms": "serving.stream_door_p50_ms",
		"stream_p99_ms": "serving.stream_door_p99_ms",
		"ttft_p50_ms":   "generate.ttft_p50_ms",
		"ttft_p99_ms":   "generate.ttft_p99_ms",
		"tpot_p50_ms":   "generate.tpot_p50_ms",
		"tpot_p99_ms":   "generate.tpot_p99_ms",
	} {
		rep.set(layer, rep.units[e2e], rep.metrics[e2e])
	}
	return rep, nil
}

// traceEvent is one complete span ('X' event) of a dump.
type traceEvent struct {
	name   string
	start  time.Time
	dur    time.Duration
	trace  uint64
	span   uint64
	parent uint64
}

func (e traceEvent) ms() float64 { return float64(e.dur) / 1e6 }

// loadDump reads a Chrome-trace dump written by internal/telemetry and
// fails if it reached the event cap, since its spans would be partial.
func loadDump(path string) ([]traceEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	recorded := 0
	var out []traceEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		recorded++
		if e.Ph != "X" {
			continue
		}
		out = append(out, traceEvent{
			name:   e.Name,
			start:  time.Unix(0, int64(e.Ts*1e3)),
			dur:    time.Duration(e.Dur * 1e3),
			trace:  hexID(e.Args["trace"]),
			span:   hexID(e.Args["span"]),
			parent: hexID(e.Args["parent"]),
		})
	}
	if recorded >= traceEventCap {
		return nil, fmt.Errorf("%s holds %d events, the telemetry cap: spans past it were dropped; shorten the traced run", path, recorded)
	}
	return out, nil
}

func hexID(s string) uint64 {
	v, _ := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64) // absent ids read as 0
	return v
}

// predictSpans attributes each predict door's latency to layers from the
// spans the servers recorded.
//
// HTTP door, per request: client latency = front (HTTP client, keep-alive
// connection and the front's HTTP handling) + router self time + stream hop
// (router attempt minus the replica's serve span) + replica serve span. The
// router roots its own trace, so requests are matched to router_predict
// spans by order: one keep-alive connection serves them one at a time.
// Stream door: the client's span context rides each request, so the
// replica's serve span is matched by trace id.
func predictSpans(dumps map[string][]traceEvent, recs []predictRec, rep *report) error {
	var httpRecs []*predictRec
	var first, last time.Time
	for i := range recs {
		r := &recs[i]
		if r.door != doorHTTP {
			continue
		}
		httpRecs = append(httpRecs, r)
		if first.IsZero() || r.sent.Before(first) {
			first = r.sent
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	sort.Slice(httpRecs, func(i, j int) bool { return httpRecs[i].sent.Before(httpRecs[j].sent) })
	inLeg := func(e traceEvent) bool { return !e.start.Before(first) && !e.start.After(last) }

	var routes []traceEvent
	attempts := map[uint64]time.Duration{}
	for _, e := range dumps["front"] {
		switch e.name {
		case "router_predict":
			if inLeg(e) {
				routes = append(routes, e)
			}
		case "router_attempt":
			attempts[e.parent] += e.dur
		}
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].start.Before(routes[j].start) })
	if len(routes) != len(httpRecs) {
		return fmt.Errorf("trace: %d router_predict spans for %d HTTP requests", len(routes), len(httpRecs))
	}
	serves := map[uint64]time.Duration{}
	var flush, run []float64
	for _, name := range []string{"replica0", "replica1"} {
		for _, e := range dumps[name] {
			switch e.name {
			case "stream_predict_serve":
				serves[e.trace] += e.dur
			case "batcher_flush":
				if inLeg(e) {
					flush = append(flush, e.ms())
				}
			case "session_run":
				if inLeg(e) {
					run = append(run, e.ms())
				}
			}
		}
	}

	var lat, front, self, hop, serve []float64
	for i, r := range httpRecs {
		if r.err != nil {
			continue
		}
		rt := routes[i]
		at, ok := attempts[rt.span]
		sv, ok2 := serves[rt.trace]
		if !ok || !ok2 {
			return fmt.Errorf("trace: routed request %d has no attempt or serve span", i)
		}
		l := r.latency()
		lat = append(lat, l)
		front = append(front, l-rt.ms())
		self = append(self, float64(rt.dur-at)/1e6)
		hop = append(hop, float64(at-sv)/1e6)
		serve = append(serve, float64(sv)/1e6)
	}
	parts := []struct {
		name string
		xs   []float64
	}{
		{"serving.http_front_ms", front},
		{"serving.router_self_ms", self},
		{"rpc.stream_hop_ms", hop},
		{"serving.stream_serve_ms", serve},
	}
	door := median(lat)
	rest := door
	for _, pt := range parts {
		v := median(pt.xs)
		rep.set(pt.name, "ms", v)
		rest -= v
	}
	// Medians do not add; what they leave of the door's median is reported
	// so the parts sum to it exactly.
	rep.set("serving.unattributed_ms", "ms", rest)
	rep.set("serving.http_door_p50_ms", "ms", door)
	rep.set("serving.batch_flush_ms", "ms", median(flush))
	rep.set("serving.session_run_ms", "ms", median(run))

	var slat, sserve []float64
	for i := range recs {
		r := &recs[i]
		if r.door != doorStream || r.err != nil {
			continue
		}
		sv, ok := serves[r.trace]
		if !ok {
			return fmt.Errorf("trace: stream-door request %d has no serve span", i)
		}
		slat = append(slat, r.latency())
		sserve = append(sserve, float64(sv)/1e6)
	}
	rep.set("serving.stream_door_serve_ms", "ms", median(sserve))
	rep.set("serving.stream_door_unattributed_ms", "ms", median(slat)-median(sserve))
	return nil
}
