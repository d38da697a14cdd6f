package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// streamLoneP50 is the smallest latency the benchmark reports a median of:
// the stream door's lone closed-loop p50, about 33µs on a 2-vCPU x86 VM.
const streamLoneP50 = 33 * time.Microsecond

// TestPacerLagAgainstNoop drives the pacer at the predict leg's combined
// rate against a target that does nothing, so all measured lateness is the
// generator's own. Its median must be small next to the smallest latency
// median the benchmark reports, or the generator would be measuring itself.
func TestPacerLagAgainstNoop(t *testing.T) {
	r := newRNG("predict-open", 1, "test")
	sched := poisson(nil, r, httpRate+streamRate, time.Second, 0)
	lags := pace(time.Now().Add(5*time.Millisecond), sched, func(int, time.Time) {})
	p50 := time.Duration(quantile(ms(lags), 0.5) * 1e6)
	p99 := time.Duration(quantile(ms(lags), 0.99) * 1e6)
	t.Logf("%d arrivals: lag p50 %v p99 %v", len(lags), p50, p99)
	if p50 > streamLoneP50/10 {
		t.Fatalf("generator lag p50 %v is not small next to the stream door's %v", p50, streamLoneP50)
	}
}

// encodeInputs renders everything a run offers — the open-loop inputs and
// the first round of HPC inputs — as bytes. Schedules are written field by
// field: arrival's fields are unexported, so a JSON encoding would drop them.
func encodeInputs(t *testing.T, p *plan, in *inputs) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sched := range [][]arrival{in.predict, in.gen} {
		for _, a := range sched {
			fmt.Fprintf(&buf, "%d/%d ", a.at, a.door)
		}
		buf.WriteByte('\n')
	}
	enc := json.NewEncoder(&buf)
	for _, v := range []any{in.rows, in.bodies, in.prompts, in.maxTokens, p.modelSeed} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"cg", "matmul-a", "matmul-b", "fft"} {
		if err := enc.Encode(randF64(p.hpcSeed(app, 0), 64)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestInputsArePureFunctionOfSeed: the same workload and seed give
// byte-identical schedules and inputs; another seed gives different ones.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	enc := func(w string, seed uint64) []byte {
		p := newPlan(w, seed, 2)
		return encodeInputs(t, p, p.inputs())
	}
	for w := range workloads {
		a, b, c := enc(w, 7), enc(w, 7), enc(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
	}
}

// TestEncodingSeesArrivalTimes: moving a single arrival of either schedule
// by one nanosecond changes the encoding, so the test above compares the
// schedules themselves and not only the inputs drawn for them.
func TestEncodingSeesArrivalTimes(t *testing.T) {
	p := newPlan("predict-open", 7, 2)
	in := p.inputs()
	base := encodeInputs(t, p, in)
	for name, sched := range map[string][]arrival{"predict": in.predict, "generate": in.gen} {
		i := len(sched) / 2
		sched[i].at += time.Nanosecond
		if bytes.Equal(base, encodeInputs(t, p, in)) {
			t.Errorf("moving %s arrival %d left the encoding unchanged", name, i)
		}
		sched[i].at -= time.Nanosecond
	}
	if !bytes.Equal(base, encodeInputs(t, p, in)) {
		t.Fatal("restoring the arrivals did not restore the encoding")
	}
}

// TestOfferedLoad checks the schedule matches its nominal rates and length
// mix, so a seed cannot silently offer a different load.
func TestOfferedLoad(t *testing.T) {
	p := newPlan("predict-open", 3, 10)
	in := p.inputs()
	var doors [2]int
	for _, a := range in.predict {
		doors[a.door]++
	}
	for door, rate := range []float64{httpRate, streamRate} {
		want := rate * p.openLoop.Seconds()
		if got := float64(doors[door]); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("door %d: %v arrivals, want about %v", door, got, want)
		}
	}
	long := 0
	for _, n := range in.maxTokens {
		switch {
		case n >= genLongMin && n <= genLongMax:
			long++
		case n < genShortMin || n > genShortMax:
			t.Fatalf("generation length %d is in neither class", n)
		}
	}
	if share := float64(long) / float64(len(in.maxTokens)); math.Abs(share-genLongShare) > 0.1 {
		t.Errorf("long share %.2f, want about %.2f", share, genLongShare)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	inf := math.Inf(1)
	if got := quantile([]float64{1, 2, 3, inf}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, 3, inf}, 0.5); got != 2.5 {
		t.Errorf("median with one failure = %v, want 2.5", got)
	}
}
