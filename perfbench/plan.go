package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// Offered load and problem sizes. None is calibrated from a measurement:
// each is a constant or drawn from the workload's seeded streams.
const (
	httpRate   = 100.0 // predict requests/s through the HTTP door
	streamRate = 500.0 // predict requests/s through the stream door
	genRate    = 100.0 // generations/s

	// hpcRounds is how many CG + matmul + FFT rounds the HPC leg runs
	// (about 4s each on a 2-vCPU x86 VM); the app metrics are their medians.
	// The first round on fresh tasks runs about 10% slow; with five rounds
	// the median comes from the warm ones.
	hpcRounds = 5

	warmupRequests = 50 // per door, closed loop, before each timed window
)

// Door indices in a predict schedule.
const (
	doorHTTP = iota
	doorStream
)

// plan is a run's offered load: a pure function of workload, seed and
// seconds. Every leg runs at full size in every workload, so each
// end-to-end metric rests on the same sample count wherever it is
// reported; the workload chooses which leg meets the freshly set-up stack
// first, and names the seeded streams its inputs are drawn from.
type plan struct {
	workload  string
	seed      uint64
	main      string
	modelSeed uint64
	work      string // working directory of the run

	openLoop time.Duration // length of each open-loop leg's schedule

	in *inputs // generated during set-up
}

func newPlan(workload string, seed uint64, seconds int) *plan {
	return &plan{
		workload:  workload,
		seed:      seed,
		main:      workloads[workload],
		modelSeed: newRNG(workload, seed, "model").Uint64()%1000000 + 1,
		openLoop:  time.Duration(seconds) * time.Second,
	}
}

// legOrder runs the workload's own leg first, then the other two.
func (p *plan) legOrder() []string {
	order := []string{p.main}
	for _, l := range []string{legHPC, legPredict, legGenerate} {
		if l != p.main {
			order = append(order, l)
		}
	}
	return order
}

// inputs are the open-loop legs' generated requests.
type inputs struct {
	predict []arrival
	rows    [][]float64 // one input row per predict arrival
	bodies  [][]byte    // KServe JSON body per HTTP-door arrival (nil for stream)

	gen       []arrival
	prompts   [][]float64
	maxTokens []int
}

// Generation length mix: about 70% short, 30% long.
const (
	genShortMin, genShortMax = 16, 64
	genLongMin, genLongMax   = 512, 1024
	genLongShare             = 0.3
)

func (p *plan) inputs() *inputs {
	in := &inputs{}
	r := newRNG(p.workload, p.seed, "predict-schedule")
	in.predict = poisson(nil, r, httpRate, p.openLoop, doorHTTP)
	in.predict = poisson(in.predict, r, streamRate, p.openLoop, doorStream)
	rows := newRNG(p.workload, p.seed, "predict-rows")
	for _, a := range in.predict {
		row := make([]float64, features)
		for j := range row {
			row[j] = rows.Float64()*2 - 1
		}
		in.rows = append(in.rows, row)
		var body []byte
		if a.door == doorHTTP {
			body = kserveBody(row)
		}
		in.bodies = append(in.bodies, body)
	}

	g := newRNG(p.workload, p.seed, "generate")
	in.gen = poisson(nil, g, genRate, p.openLoop, 0)
	for range in.gen {
		prompt := make([]float64, features)
		for j := range prompt {
			prompt[j] = g.Float64()*2 - 1
		}
		in.prompts = append(in.prompts, prompt)
		n := genShortMin + g.IntN(genShortMax-genShortMin+1)
		if g.Float64() < genLongShare {
			n = genLongMin + g.IntN(genLongMax-genLongMin+1)
		}
		in.maxTokens = append(in.maxTokens, n)
	}
	return in
}

// kserveBody renders one row as a rank-2 KServe v1 "instances" body.
func kserveBody(row []float64) []byte {
	b, err := json.Marshal(map[string][][]float64{"instances": {row}})
	if err != nil {
		panic(fmt.Sprintf("marshal row: %v", err)) // finite floats always marshal
	}
	return b
}

// hpcSeed derives the seed of one HPC job's inputs.
func (p *plan) hpcSeed(app string, round int) uint64 {
	return newRNG(p.workload, p.seed, fmt.Sprintf("%s/%d", app, round)).Uint64()
}
