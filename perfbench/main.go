// Command perfbench is the repository's end-to-end benchmark. It launches
// the shipped server binaries (tfserver, tfserve) as separate processes,
// drives them from this one process, verifies every output outside the
// timed windows, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload predict-open --seed 3 --seconds 5 --trace 0
//
// Every run measures three legs, each at full size: the paper's HPC apps
// on a two-task cluster, open-loop predict through an HTTP door and a
// stream door, and open-loop token generation. The workload only picks
// which leg runs first on the freshly set-up stack and names the seeded
// streams the inputs are drawn from, so every run reports every
// end-to-end metric.
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload to the leg it measures for --seconds.
var workloads = map[string]string{
	"hpc-apps":      legHPC,
	"predict-open":  legPredict,
	"generate-open": legGenerate,
}

const (
	legHPC      = "hpc"
	legPredict  = "predict"
	legGenerate = "generate"
)

// setupReps is how many times a run sets the stack up; setup_s is the
// median.
const setupReps = 7

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	wrong     []string // verification failures
	metrics   map[string]float64
	units     map[string]string
	lags      []time.Duration // generator lateness over every open-loop leg
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, units: map[string]string{}}
}

// set records metric name with its unit.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = v
	r.units[name] = unit
}

// mismatch records a verification failure; the run then fails.
func (r *report) mismatch(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
	spec     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "hpc-apps | predict-open | generate-open")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every offered input derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of the workload's leg")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding tfserver, tfserve and tfsgd")
	flag.StringVar(&o.work, "work", "", "working directory for checkpoints, tiles, logs and trace dumps (emptied first)")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the metrics the result line carries")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.bin == "" || o.work == "" || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (hpc-apps|predict-open|generate-open), -bin, -work and -seconds > 0")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	names, err := declaredMetrics(o.spec, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, w := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", w)
	}
	printMetrics(rep)
	metrics, err := resultMetrics(rep, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(rep.wrong) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if len(rep.wrong) > 0 {
		os.Exit(1)
	}
}

// printMetrics writes one "name value unit" line per metric, for people.
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.metrics[n], rep.units[n])
	}
}

// failedValue stands in for a latency that is infinite because too many
// requests failed; JSON has no infinity.
const failedValue = 1e12

// declaredMetrics reads the benchmark definition: the end-to-end metric
// names, or with trace the per-layer ones.
func declaredMetrics(path string, trace bool) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// resultMetrics picks the declared metrics out of the report, failing if
// the run did not measure one.
func resultMetrics(rep *report, names []string) (map[string]any, error) {
	out := make(map[string]any, len(names))
	for _, n := range names {
		v, ok := rep.metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", n)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = failedValue
		}
		out[n] = map[string]any{"value": v, "unit": rep.units[n]}
	}
	return out, nil
}

// run executes one benchmark run.
func run(o options) (*report, error) {
	if err := os.RemoveAll(o.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	p := newPlan(o.workload, o.seed, o.seconds)
	p.work = o.work
	if o.trace {
		return runTraced(o, p)
	}
	rep := newReport()

	// Set up several times; the last stack stays up and is measured.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startStack(o.bin, filepath.Join(o.work, fmt.Sprintf("setup%d", i)), "", p.modelSeed)
		if err != nil {
			return nil, err
		}
		in := p.inputs()
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
		p.in = in
	}
	defer st.stop()
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.3f s\n", setups)
	rep.set("setup_s", "s", median(setups))

	for _, leg := range p.legOrder() {
		if err := runLeg(leg, st, p, rep, nil); err != nil {
			return nil, err
		}
	}
	mem, err := st.memPeakMB()
	if err != nil {
		return nil, err
	}
	rep.set("mem_peak_mb", "MB", mem)
	if err := st.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runLeg runs one leg against the stack; tr is non-nil in traced runs and
// collects what the per-layer metrics need.
func runLeg(leg string, st *stack, p *plan, rep *report, tr *tracer) error {
	// Start every leg from a collected heap, so garbage a previous leg left
	// (the HPC inputs are hundreds of MB) is not marked during this one.
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	var err error
	switch leg {
	case legHPC:
		err = runHPC(st, p, rep, tr)
	case legPredict:
		err = runPredict(st, p, rep, tr)
	case legGenerate:
		err = runGenerate(st, p, rep, tr)
	default:
		err = fmt.Errorf("unknown leg %q", leg)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s leg took %.1fs\n", leg, time.Since(t0).Seconds())
	return err
}
