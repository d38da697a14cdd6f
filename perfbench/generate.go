package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
)

// genRec is one generation as the client saw it.
type genRec struct {
	due         time.Time
	first, last time.Time
	tokens      []float64
	reason      generate.FinishReason
	err         error
}

// ok reports whether the stream ran to its full token budget.
func (g *genRec) ok(maxTokens int) bool {
	return g.err == nil && g.reason == generate.FinishLength && len(g.tokens) == maxTokens
}

// drainTimeout bounds how long the streams of a leg may run on after its
// last arrival.
const drainTimeout = 60 * time.Second

// consumeGeneration runs one generation to completion over its own stream.
func consumeGeneration(rc *rpc.Client, r *genRec, prompt []float64, maxTokens int) {
	span := telemetry.StartRoot("bench/generate")
	defer span.End()
	gs, err := serving.OpenGenerateStream(rc, span.Context(), "gen",
		generate.Request{Prompt: prompt, MaxTokens: maxTokens})
	if err != nil {
		r.err = err
		return
	}
	r.tokens = make([]float64, 0, maxTokens)
	for {
		tok, ok := gs.Next()
		if !ok {
			break
		}
		now := time.Now()
		if len(r.tokens) == 0 {
			r.first = now
		}
		r.last = now
		r.tokens = append(r.tokens, tok.Value)
	}
	r.reason, r.err = gs.Finish()
}

// runGenerate offers the seeded open-loop schedule of generations to the
// generative replica, one ServingGenerateStream each, all multiplexed on one
// rpc connection. Every stream is checked afterwards against the model's
// sequential reference decode.
func runGenerate(st *stack, p *plan, rep *report, tr *tracer) error {
	in := p.in
	rc := rpc.Dial(st.gen.addrs["rpc"])
	defer rc.Close()
	for i := 0; i < 5; i++ {
		var r genRec
		consumeGeneration(rc, &r, in.prompts[0], genShortMin)
		if !r.ok(genShortMin) {
			return fmt.Errorf("generate warm-up: %v (%s, %d tokens)", r.err, r.reason, len(r.tokens))
		}
	}

	var before meters
	var sampler *gaugeSampler
	if tr != nil {
		var err error
		if before, err = sample(st.gen); err != nil {
			return err
		}
		sampler = startGaugeSampler(metricsAddr(st.gen), "tfhpc_generate_queue_depth", "tfhpc_generate_slots_in_use")
	}

	recs := make([]genRec, len(in.gen))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	lags := pace(start, in.gen, func(i int, due time.Time) {
		recs[i].due = due
		wg.Add(1)
		go func() {
			defer wg.Done()
			consumeGeneration(rc, &recs[i], in.prompts[i], in.maxTokens[i])
		}()
	})
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		// Closing the connection ends every stream; wait for them to see it.
		rc.Close()
		<-drained
		return fmt.Errorf("generation streams still running %v after the last arrival", drainTimeout)
	}
	rep.lags = append(rep.lags, lags...)
	var gauges map[string][]float64
	if sampler != nil {
		gauges = sampler.stop()
	}

	// Verify: continuous ≡ sequential, bit for bit.
	w, _, err := serving.LoadGenerative(st.genCkpt, 0)
	if err != nil {
		return err
	}
	model, err := generate.NewModel("gen", w.F64())
	if err != nil {
		return err
	}
	var ttft, tpot []float64
	var tokens int
	for i := range recs {
		r := &recs[i]
		rep.attempted++
		n := in.maxTokens[i]
		if !r.ok(n) {
			rep.failed++
			ttft = append(ttft, math.Inf(1))
			tpot = append(tpot, math.Inf(1))
			continue
		}
		tokens += len(r.tokens)
		want, _ := model.Reference(in.prompts[i], n, 0)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(r.tokens[j]) {
				rep.mismatch("generation %d token %d = %v, sequential %v", i, j, r.tokens[j], want[j])
				rep.failed++
				break
			}
		}
		ttft = append(ttft, float64(r.first.Sub(r.due))/1e6)
		tpot = append(tpot, float64(r.last.Sub(r.first))/1e6/float64(len(r.tokens)-1))
	}
	rep.set("ttft_p50_ms", "ms", quantile(ttft, 0.5))
	rep.set("ttft_p99_ms", "ms", quantile(ttft, 0.99))
	rep.set("tpot_p50_ms", "ms", quantile(tpot, 0.5))
	rep.set("tpot_p99_ms", "ms", quantile(tpot, 0.99))
	if tr == nil {
		return nil
	}

	after, err := sample(st.gen)
	if err != nil {
		return err
	}
	b, a := before.m[0], after.m[0]
	rep.set("generate.engine_ttft_ms", "ms", 1e3*histMean(b, a, "tfhpc_generate_ttft_seconds"))
	rep.set("generate.engine_intertoken_ms", "ms", 1e3*histMean(b, a, "tfhpc_generate_intertoken_seconds"))
	rep.set("generate.slots_per_step", "slots", histMean(b, a, "tfhpc_generate_step_slots"))
	rep.set("generate.queue_depth_max", "requests", maxOf(gauges["tfhpc_generate_queue_depth"]))
	rep.set("generate.slots_in_use_mean", "slots", meanOf(gauges["tfhpc_generate_slots_in_use"]))
	rep.set("generate.stalls", "count", delta(b, a, "tfhpc_generate_stalls_total"))
	rep.set("generate.rejected", "count", delta(b, a, "tfhpc_generate_rejected_total"))
	rep.set("generate.expired", "count", delta(b, a, "tfhpc_generate_expired_total"))
	rep.set("rpc.credit_stalls.generate", "count", delta(b, a, "tfhpc_stream_credit_stalls_total"))
	rep.set("proc.cpu_ms_per_token", "ms", float64(after.procs[0].cpu-before.procs[0].cpu)/1e6/math.Max(float64(tokens), 1))
	return nil
}

// gaugeSampler polls gauges on a /metricz endpoint every 50ms.
type gaugeSampler struct {
	quit chan struct{}
	done chan struct{}
	vals map[string][]float64
}

func startGaugeSampler(addr string, names ...string) *gaugeSampler {
	g := &gaugeSampler{quit: make(chan struct{}), done: make(chan struct{}), vals: map[string][]float64{}}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-tick.C:
			}
			m, err := scrape(addr)
			if err != nil {
				continue // a missed sample only thins the series
			}
			for _, n := range names {
				g.vals[n] = append(g.vals[n], m.sum(n))
			}
		}
	}()
	return g
}

// stop ends sampling and returns the series.
func (g *gaugeSampler) stop() map[string][]float64 {
	close(g.quit)
	<-g.done
	return g.vals
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
