package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// streamPool is how many PredictStreams the stream door multiplexes on its
// one rpc connection; each carries one request at a time.
const streamPool = 8

// predictRec is one predict request as the client saw it.
type predictRec struct {
	door  int
	due   time.Time
	sent  time.Time
	done  time.Time
	trace uint64 // client span's trace id (stream door, traced runs)
	out   []float64
	err   error
}

// latency is the request's time from due to answer, +Inf when it failed.
func (r *predictRec) latency() float64 {
	if r.err != nil {
		return math.Inf(1)
	}
	return float64(r.done.Sub(r.due)) / 1e6
}

// floats copies a float tensor's values out as float64.
func floats(t *tensor.Tensor) ([]float64, error) {
	switch t.DType() {
	case tensor.Float64:
		return append([]float64(nil), t.F64()...), nil
	case tensor.Float32:
		out := make([]float64, len(t.F32()))
		for i, v := range t.F32() {
			out[i] = float64(v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unexpected output dtype %v", t.DType())
}

// flatten collects every number of a decoded JSON value in order.
func flatten(v any, out []float64) ([]float64, error) {
	switch x := v.(type) {
	case float64:
		return append(out, x), nil
	case []any:
		for _, e := range x {
			var err error
			if out, err = flatten(e, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unexpected prediction %T", v)
}

// httpDoor posts KServe bodies to the front over one keep-alive connection.
type httpDoor struct {
	client *http.Client
	url    string
}

func newHTTPDoor(addr string) *httpDoor {
	return &httpDoor{
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		url: "http://" + addr + "/v1/models/lin:predict",
	}
}

func (d *httpDoor) predict(body []byte) ([]float64, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http predict: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var r struct {
		Predictions any `json:"predictions"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return flatten(r.Predictions, nil)
}

func streamPredict(ps *serving.PredictStream, tsc telemetry.SpanContext, row []float64) ([]float64, error) {
	out, err := ps.PredictTraced(tsc, "lin", tensor.FromF64(tensor.Shape{len(row)}, row), time.Time{})
	if err != nil {
		return nil, err
	}
	return floats(out)
}

// runPredict offers the seeded open-loop schedule through both doors: the
// HTTP door (rank-2 KServe JSON, router → replica stream → batcher) and the
// stream door (rank-1 rows on PredictStreams to replica 0, the row fast
// path). Every answer is checked afterwards against the row predicted
// alone, in process, from the same checkpoint.
func runPredict(st *stack, p *plan, rep *report, tr *tracer) error {
	in := p.in
	door := newHTTPDoor(st.front.addrs["http"])
	defer door.client.CloseIdleConnections()
	rc := rpc.Dial(st.reps[0].addrs["rpc"])
	defer rc.Close()
	streams := make([]*serving.PredictStream, streamPool)
	for i := range streams {
		ps, err := serving.OpenPredictStream(rc)
		if err != nil {
			return fmt.Errorf("open predict stream: %w", err)
		}
		defer ps.Close()
		streams[i] = ps
	}

	// Warm both paths up, closed loop, outside the timed window.
	warm := kserveBody(in.rows[0])
	for i := 0; i < warmupRequests; i++ {
		if _, err := door.predict(warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if _, err := streamPredict(streams[0], telemetry.SpanContext{}, in.rows[0]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The predict servers' meters, in the order front, replica 0, replica 1.
	predictors := []*proc{st.front, st.reps[0], st.reps[1]}
	var before meters
	if tr != nil {
		var err error
		if before, err = sample(predictors...); err != nil {
			return err
		}
	}
	recs := make([]predictRec, len(in.predict))
	httpCh := make(chan int, len(in.predict))
	streamCh := make(chan int, len(in.predict))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range httpCh {
			r := &recs[i]
			span := telemetry.StartRoot("bench/http_predict")
			r.sent = time.Now()
			r.out, r.err = door.predict(in.bodies[i])
			r.done = time.Now()
			span.End()
		}
	}()
	for _, ps := range streams {
		wg.Add(1)
		go func(ps *serving.PredictStream) {
			defer wg.Done()
			for i := range streamCh {
				r := &recs[i]
				span := telemetry.StartRoot("bench/stream_predict")
				r.trace = span.Context().Trace
				r.sent = time.Now()
				r.out, r.err = streamPredict(ps, span.Context(), in.rows[i])
				r.done = time.Now()
				span.End()
			}
		}(ps)
	}
	start := time.Now().Add(10 * time.Millisecond)
	lags := pace(start, in.predict, func(i int, due time.Time) {
		recs[i].door, recs[i].due = in.predict[i].door, due
		if in.predict[i].door == doorHTTP {
			httpCh <- i
		} else {
			streamCh <- i
		}
	})
	close(httpCh)
	close(streamCh)
	wg.Wait()
	rep.lags = append(rep.lags, lags...)

	// Verify: batched ≡ single, bit for bit.
	mv, err := serving.LoadLinear("lin", 0, st.linCkpt)
	if err != nil {
		return err
	}
	var lat [2][]float64
	for i := range recs {
		r := &recs[i]
		rep.attempted++
		if r.err != nil {
			rep.failed++
		} else if err := checkRow(mv, in.rows[i], r.out); err != nil {
			rep.mismatch("predict %d (door %d): %v", i, r.door, err)
			rep.failed++
		}
		lat[r.door] = append(lat[r.door], r.latency())
	}
	rep.set("http_p50_ms", "ms", quantile(lat[doorHTTP], 0.5))
	rep.set("http_p99_ms", "ms", quantile(lat[doorHTTP], 0.99))
	rep.set("stream_p50_ms", "ms", quantile(lat[doorStream], 0.5))
	rep.set("stream_p99_ms", "ms", quantile(lat[doorStream], 0.99))
	if tr == nil {
		return nil
	}
	tr.predict = recs

	after, err := sample(predictors...)
	if err != nil {
		return err
	}
	reqs := float64(len(recs))
	for i, name := range []string{"front", "replica0", "replica1"} {
		cpu := after.procs[i].cpu - before.procs[i].cpu
		rep.set("proc.cpu_ms_per_req."+name, "ms", float64(cpu)/1e6/reqs)
	}
	sumDelta := func(name string) float64 {
		var t float64
		for i := range after.m {
			t += delta(before.m[i], after.m[i], name)
		}
		return t
	}
	rep.set("serving.batcher_queue_wait_ms", "ms", 1e3*sumDelta("tfhpc_batcher_queue_wait_seconds_sum")/
		math.Max(sumDelta("tfhpc_batcher_queue_wait_seconds_count"), 1))
	rep.set("serving.batch_rows_mean", "rows", sumDelta("tfhpc_batcher_rows_total")/math.Max(sumDelta("tfhpc_batcher_batches_total"), 1))
	rep.set("serving.rejected", "count", sumDelta("tfhpc_batcher_rejected_total"))
	rep.set("serving.expired", "count", sumDelta("tfhpc_batcher_expired_total"))
	rep.set("serving.router_retries", "count", sumDelta("tfhpc_router_retries_total"))
	rep.set("serving.router_failovers", "count", sumDelta("tfhpc_router_failovers_total"))
	rep.set("rpc.credit_stalls.predict", "count", sumDelta("tfhpc_stream_credit_stalls_total"))

	// Which path each door takes: batcher rows per request, one door at a
	// time, closed loop, outside the timed window.
	const probe = 100
	for _, d := range []int{doorHTTP, doorStream} {
		b0, err := sample(predictors...)
		if err != nil {
			return err
		}
		for i := 0; i < probe; i++ {
			if d == doorHTTP {
				_, err = door.predict(warm)
			} else {
				_, err = streamPredict(streams[0], telemetry.SpanContext{}, in.rows[0])
			}
			if err != nil {
				return fmt.Errorf("door probe: %w", err)
			}
		}
		b1, err := sample(predictors...)
		if err != nil {
			return err
		}
		rows := delta(b0.m[1], b1.m[1], "tfhpc_batcher_rows_total") + delta(b0.m[2], b1.m[2], "tfhpc_batcher_rows_total")
		name := map[int]string{doorHTTP: "http", doorStream: "stream"}[d]
		rep.set("serving.batcher_rows_per_req."+name, "rows", rows/probe)
	}
	return nil
}

// checkRow compares a served answer with the row predicted alone.
func checkRow(mv *serving.ModelVersion, row, got []float64) error {
	want, err := mv.Predict(tensor.FromF64(tensor.Shape{1, len(row)}, row))
	if err != nil {
		return err
	}
	w, err := floats(want)
	if err != nil {
		return err
	}
	if len(w) != len(got) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(w))
	}
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("output %d = %v, alone %v", i, got[i], w[i])
		}
	}
	return nil
}
