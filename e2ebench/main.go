// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload of the shipped configuration in-process with a single
// closed-loop client, checks every output, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency, CPU and retained heap); with --trace 1 the run is
// the traced one and the metrics are per layer (compiler phases, kernel
// time by evaluator tier, service encode and overhead, stream tile
// skipping, Go runtime allocation). See README.md for the workloads, the
// metric definitions and how each layer metric maps to an end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	_ "repro/internal/apps/gen" // the generated kernels the shipped binaries link
)

// procStart approximates the process start: package variables initialize
// before main runs, after the runtime is up.
var procStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	refDir   string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"serve-auto":  runServeAuto,
	"lib-hand-1t": runLibHand,
	"stream-roi":  runStreamROI,
}

// tailPct pins the tail percentile of each workload (README: "Tail
// percentiles"): the highest percentile that leaves at least minBeyond
// samples beyond it at the sample counts a 28 s run gives. It stays fixed
// when a slow run has fewer samples, so the metric keeps its definition.
var tailPct = map[string]float64{
	"serve-auto":  60,
	"lib-hand-1t": 60,
	"stream-roi":  99,
}

func main() {
	var cfg config
	var trace int
	refs := flag.Bool("refs", false, "make the reference-output cache for every input seed, then exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-auto, lib-hand-1t or stream-roi")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: selects the input seed and the op order")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.refDir, "ref-dir", ".bench_refs", "directory of the reference-output cache")
	flag.Parse()
	cfg.trace = trace == 1

	if *refs {
		if err := makeAllRefs(cfg.refDir); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have serve-auto, lib-hand-1t, stream-roi)", cfg.workload))
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	b := newBench(cfg)
	if err := run(b); err != nil {
		fatal(err)
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// inputSeeds is the pool of synthetic-input seeds; --seed picks one, so the
// reference cache holds at most len(inputSeeds) entries per program.
var inputSeeds = [...]int64{42, 43, 44, 45}

func inputSeedFor(seed int64) int64 {
	i := seed % int64(len(inputSeeds))
	if i < 0 {
		i += int64(len(inputSeeds))
	}
	return inputSeeds[i]
}

// usage is a reading of the process clocks and allocator counters.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: the client's clocks, counters and
// latency samples, plus the layer figures the traced run collects.
type bench struct {
	cfg    config
	rng    *rand.Rand
	inSeed int64

	// oracle is time spent making or loading references and checking
	// outputs against them; it is benchmark work, not program work, and is
	// left out of setup_s.
	oracle time.Duration
	setup  time.Duration

	// Timed phase. check is the client's own per-op output checking,
	// left out of the wall and CPU figures.
	t0, t1    usage
	check     time.Duration
	attempted int64
	failed    int64
	errs      []string
	incorrect []string
	lat       map[string][]float64 // per-program op latency in ms

	// Traced run: rounds alternate between untraced and traced, so the
	// tracing overhead is measured on interleaved rounds.
	roundWall [2]time.Duration
	roundOps  [2]int64
	metrics   map[string]metric
}

func newBench(cfg config) *bench {
	return &bench{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		inSeed:  inputSeedFor(cfg.seed),
		lat:     map[string][]float64{},
		metrics: map[string]metric{},
	}
}

// timeOracle runs f as benchmark-side checking work: its time is excluded
// from setup_s, and an error marks the run incorrect.
func (b *bench) timeOracle(what string, f func() error) {
	t := time.Now()
	err := f()
	b.oracle += time.Since(t)
	if err != nil {
		b.fail("%s: %v", what, err)
	}
}

// fail marks the run incorrect.
func (b *bench) fail(format string, args ...any) {
	b.incorrect = append(b.incorrect, fmt.Sprintf(format, args...))
}

// endSetup closes the set-up phase: time from process start to now, minus
// the oracle's share.
func (b *bench) endSetup() {
	b.setup = time.Since(procStart) - b.oracle
}

// unit is one schedulable piece of a round: one op on one program
// (serve-auto, lib-hand-1t) or one many-frame request (stream-roi).
type unit func(traced bool)

// timed runs whole rounds until the run length has passed; every round
// runs each unit once, in a freshly shuffled order.
func (b *bench) timed(units []unit) {
	runtime.GC()
	b.t0 = readUsage()
	limit := time.Duration(b.cfg.seconds * float64(time.Second))
	for round := 0; time.Since(b.t0.at) < limit; round++ {
		traced := b.cfg.trace && round%2 == 1
		i := 0
		if traced {
			i = 1
		}
		t, n := time.Now(), b.attempted
		c := b.check
		for _, k := range b.rng.Perm(len(units)) {
			units[k](traced)
		}
		b.roundWall[i] += time.Since(t) - (b.check - c)
		b.roundOps[i] += b.attempted - n
	}
	b.t1 = readUsage()
}

// op records one completed or failed op.
func (b *bench) op(prog string, ms float64, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 5 {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", prog, err))
		}
		return
	}
	b.lat[prog] = append(b.lat[prog], ms)
}

// checked runs a per-op output check, keeping its time out of the timed
// phase's wall and CPU figures.
func (b *bench) checked(f func() error) error {
	t := time.Now()
	err := f()
	b.check += time.Since(t)
	return err
}

// heapRetainedMB forces a collection and returns the live heap in MB
// (10^6 bytes). keep is held alive across the collection.
func heapRetainedMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// endToEnd fills the end-to-end metrics from the timed phase.
func (b *bench) endToEnd(heapMB float64) map[string]metric {
	wall := b.t1.at.Sub(b.t0.at) - b.check
	cpu := b.t1.cpu - b.t0.cpu - b.check
	ops := float64(b.attempted - b.failed)
	p := tailPct[b.cfg.workload]
	for _, n := range sortedKeys(b.lat) {
		xs := b.lat[n]
		if tailPercentile(len(xs)) < p {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %d samples leave fewer than %d beyond p%g\n", n, len(xs), minBeyond, p)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %-12s n=%-5d p50=%.3fms p%g=%.3fms p90=%.3fms p99=%.3fms\n",
			n, len(xs), percentile(xs, 50), p, percentile(xs, p), percentile(xs, 90), percentile(xs, 99))
	}
	return map[string]metric{
		"setup_s":          {b.setup.Seconds(), "s"},
		"ops_per_s":        {ops / wall.Seconds(), "1/s"},
		"lat_p50_ms":       {geoPercentile(b.lat, 50), "ms"},
		"lat_tail_ms":      {geoPercentile(b.lat, p), "ms"},
		"cpu_ms_per_op":    {float64(cpu) / 1e6 / ops, "ms"},
		"heap_retained_mb": {heapMB, "MB"},
	}
}

// result assembles the printed line. A run is correct when every verified
// output matched its oracle; ops whose output differed from the verified
// one are counted in failed.
func (b *bench) result() result {
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: failed op:", e)
	}
	for _, e := range b.incorrect {
		fmt.Fprintln(os.Stderr, "e2ebench: incorrect:", e)
	}
	r := result{Correct: len(b.incorrect) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for k, v := range b.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		r.Metrics[k] = v
	}
	return r
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
