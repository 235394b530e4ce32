package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// tiers are the evaluator tiers kernel time is attributed to, in the order
// ties are broken.
var tiers = []string{"gen", "stencil", "comb", "int_stencil", "vm", "closure", "scalar"}

// programNames lists every program a workload can run: the Table-2 apps
// and the narrow-type variants.
func programNames() []string {
	return append(apps.Names(), apps.NarrowNames()...)
}

// layerUnits names every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"core.compile_ms":                 "ms",
		"core.phase_ms.graph":             "ms",
		"core.phase_ms.bounds":            "ms",
		"core.phase_ms.inline":            "ms",
		"core.phase_ms.group":             "ms",
		"core.phase_ms.auto":              "ms",
		"schedule.search_states":          "count",
		"engine.bind_ms":                  "ms",
		"apps.inputs_ms":                  "ms",
		"engine.recompute_frac":           "frac",
		"engine.worker_busy_frac":         "frac",
		"engine.arena_hit_frac":           "frac",
		"engine.arena_pooled_mb":          "MB",
		"stream.tiles_skipped_frac":       "frac",
		"stream.tiles_executed_per_frame": "count",
		"stream.frame_ms":                 "ms",
		"service.encode_ms":               "ms",
		"service.overhead_ms":             "ms",
		"service.cache_hit_frac":          "frac",
		"service.http_ms":                 "ms",
		"runtime.alloc_kb_per_op":         "KB",
		"runtime.gc_cycles_per_op":        "count",
		"trace.overhead_frac":             "frac",
		"closure.service_resid_frac":      "frac",
		"closure.service_cold_resid_frac": "frac",
		"closure.compile_resid_frac":      "frac",
	}
	for _, t := range tiers {
		u["engine.kernel_ms."+t] = "ms"
	}
	for _, p := range programNames() {
		u["engine.run_ms."+p] = "ms"
		u["engine.gen_hit."+p] = "frac"
	}
	return u
}

// setLayer records a per-layer metric with its declared unit.
func (b *bench) setLayer(name string, v float64) {
	b.metrics[name] = metric{v, layerUnits()[name]}
}

// finishLayers fills every per-layer metric not yet set with 0, adds the
// runtime and tracing-overhead figures of the timed phase, and reports on
// standard error each closure residual beyond the tolerance. A failed
// closure means a layer's own spans miss part of the work; it does not make
// the outputs incorrect, so it does not clear "correct".
func (b *bench) finishLayers() {
	ops := float64(b.attempted)
	b.setLayer("runtime.alloc_kb_per_op", float64(b.t1.alloc-b.t0.alloc)/1024/ops)
	b.setLayer("runtime.gc_cycles_per_op", float64(b.t1.gcs-b.t0.gcs)/ops)
	if b.roundOps[0] > 0 && b.roundOps[1] > 0 {
		untraced := float64(b.roundOps[0]) / b.roundWall[0].Seconds()
		traced := float64(b.roundOps[1]) / b.roundWall[1].Seconds()
		b.setLayer("trace.overhead_frac", 1-traced/untraced)
	}
	for name, unit := range layerUnits() {
		if _, ok := b.metrics[name]; !ok {
			b.metrics[name] = metric{0, unit}
		}
	}
	for _, c := range []string{"closure.service_resid_frac", "closure.service_cold_resid_frac", "closure.compile_resid_frac"} {
		if v := b.metrics[c].Value; v > closureTol || v < -closureTol {
			fmt.Fprintf(os.Stderr, "e2ebench: closure check failed: %s = %.3f, tolerance %.2f\n", c, v, closureTol)
		}
	}
}

// closureTol is the largest share of an outside-timed wall that the sum of
// its separately timed parts may miss.
const closureTol = 0.10

// compiled is one program compiled outside any service, with its
// outside-timed Compile+Bind wall and input-synthesis time.
type compiled struct {
	prog   *engine.Program
	inputs map[string]*engine.Buffer
	wall   time.Duration
	inWall time.Duration
}

// compilePipeline compiles and binds a pipeline the way the service does
// (schedule.DefaultOptions, auto as given, estimates = binding) and makes
// its inputs when inputs is not nil, timing both from outside.
func compilePipeline(bld *dsl.Builder, outs []string, params map[string]int64, auto bool, eo engine.ExecOptions,
	inputs func() (map[string]*engine.Buffer, error)) (*compiled, error) {
	so := schedule.DefaultOptions()
	so.Auto = auto
	t := time.Now()
	pl, err := core.Compile(bld, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		return nil, err
	}
	prog, err := pl.Bind(params, eo)
	if err != nil {
		return nil, err
	}
	c := &compiled{prog: prog, wall: time.Since(t)}
	if inputs == nil {
		return c, nil
	}
	t = time.Now()
	c.inputs, err = inputs()
	c.inWall = time.Since(t)
	if err != nil {
		prog.Close()
		return nil, err
	}
	return c, nil
}

// compileApp compiles a Table-2 app at its scale-4 binding.
func compileApp(app *apps.App, seed int64, auto bool, eo engine.ExecOptions) (*compiled, error) {
	bld, outs := app.Build()
	params := appParams(app)
	return compilePipeline(bld, outs, params, auto, eo, func() (map[string]*engine.Buffer, error) {
		return app.Inputs(bld, params, seed)
	})
}

// compileLayers sets the core, schedule and bind metrics (sums over the
// workload's programs) and the compile closure: the Program.Stats phase
// timings against the outside-timed Compile+Bind walls.
func (b *bench) compileLayers(cs []*compiled) {
	var wall, inWall, phases, bind time.Duration
	phase := map[string]time.Duration{}
	states := 0
	for _, c := range cs {
		st := c.prog.Stats()
		wall += c.wall
		inWall += c.inWall
		if st.Compile != nil {
			for _, p := range st.Compile.Phases {
				phase[p.Name] += time.Duration(p.Nanos)
				phases += time.Duration(p.Nanos)
			}
		}
		bind += time.Duration(st.Bind.Total())
		states += st.SearchStates
	}
	b.setLayer("core.compile_ms", ms(phases))
	for _, p := range []string{"graph", "bounds", "inline", "group", "auto"} {
		b.setLayer("core.phase_ms."+p, ms(phase[p]))
	}
	b.setLayer("schedule.search_states", float64(states))
	b.setLayer("engine.bind_ms", ms(bind))
	b.setLayer("apps.inputs_ms", ms(inWall))
	b.setLayer("closure.compile_resid_frac", float64(wall-phases-bind)/float64(wall))
}

// genHits sets engine.gen_hit.<program>: generated-kernel pieces over all
// lowered pieces.
func (b *bench) genHits(name string, stages []obs.StageModel) {
	gen, all := 0, 0
	for _, s := range stages {
		gen += s.Gen
		all += s.Gen + s.Stencil + s.Comb + s.IntStencil + s.RowVM + s.ClosureRow + s.Scalar
	}
	if all > 0 {
		b.setLayer("engine.gen_hit."+name, float64(gen)/float64(all))
	}
}

// tierOf names the tier most of a stage's pieces were lowered to.
func tierOf(sm obs.StageModel) string {
	counts := []int{sm.Gen, sm.Stencil, sm.Comb, sm.IntStencil, sm.RowVM, sm.ClosureRow, sm.Scalar}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return tiers[best]
}

// progView is one program's executor counters and lowering decisions.
type progView struct {
	snap   obs.Snapshot
	stages []obs.StageModel
}

// engineLayers sets the engine metrics from counter deltas between two
// views of the same programs, taken around the timed phase: kernel time by
// tier per op, recomputation, worker busy share of the fleet's capacity
// over wall, arena hits and the arena's pooled bytes at the end.
func (b *bench) engineLayers(before, after map[string]progView, ops int64, wall time.Duration) {
	kernel := map[string]int64{}
	var pts, rec, busy, hits, misses, pooled int64
	fleet := 1
	for name, a := range after {
		z := before[name]
		tier := map[string]string{}
		for _, sm := range a.stages {
			tier[sm.Name] = tierOf(sm)
		}
		for i, st := range a.snap.Stages {
			var prev obs.StageStats
			if i < len(z.snap.Stages) {
				prev = z.snap.Stages[i]
			}
			t, ok := tier[st.Name]
			if !ok {
				t = "scalar"
			}
			kernel[t] += st.KernelNanos - prev.KernelNanos
			pts += st.Points - prev.Points
			rec += st.RecomputedPoints - prev.RecomputedPoints
		}
		busy += a.snap.Workers.BusyNanos - z.snap.Workers.BusyNanos
		hits += a.snap.Arena.Hits - z.snap.Arena.Hits
		misses += a.snap.Arena.Misses - z.snap.Arena.Misses
		pooled += a.snap.Arena.PooledBytes
		if a.snap.Workers.Fleet > fleet {
			fleet = a.snap.Workers.Fleet
		}
	}
	for _, t := range tiers {
		b.setLayer("engine.kernel_ms."+t, float64(kernel[t])/1e6/float64(ops))
	}
	if pts > 0 {
		b.setLayer("engine.recompute_frac", float64(rec)/float64(pts))
	}
	b.setLayer("engine.worker_busy_frac", float64(busy)/(float64(wall)*float64(fleet)))
	if hits+misses > 0 {
		b.setLayer("engine.arena_hit_frac", float64(hits)/float64(hits+misses))
	}
	b.setLayer("engine.arena_pooled_mb", float64(pooled)/1e6)
}

// runMillis sets engine.run_ms.<program> to the median of its samples.
func (b *bench) runMillis(run map[string][]float64) {
	for name, xs := range run {
		b.setLayer("engine.run_ms."+name, median(xs))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
