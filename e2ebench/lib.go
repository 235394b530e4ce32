package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/harness"
)

// libExecOptions are the library path's options: hand schedules, one
// thread, the fast kernels and pooled buffers.
func libExecOptions(metrics bool) engine.ExecOptions {
	return engine.ExecOptions{Threads: 1, Fast: true, ReuseBuffers: true, Metrics: metrics}
}

// libProg is one program of lib-hand-1t.
type libProg struct {
	name string
	c    *compiled
	// tprog is the traced run's metrics-enabled twin of c.prog.
	tprog *engine.Program
	outs  []string
	fp    map[string]uint64
	// verify checks the first op's outputs against the program's oracle.
	verify func(map[string]*engine.Buffer) error
}

// compileNarrow compiles a narrow-type app (NarrowTypes on) at its scale-4
// binding with the hand schedule, with its uint8 inputs.
func compileNarrow(app *apps.NarrowApp, seed int64, eo engine.ExecOptions) (*compiled, error) {
	bld, outs := app.Build()
	params := harness.ScaledNarrowParams(app, scale)
	eo.NarrowTypes = true
	return compilePipeline(bld, outs, params, false, eo, func() (map[string]*engine.Buffer, error) {
		return app.Inputs(bld, params, seed)
	})
}

// checkNarrow checks narrow outputs for bit equality with the float32
// layout of the same pipeline, run on the same inputs widened to float32.
func checkNarrow(app *apps.NarrowApp, inputs, got map[string]*engine.Buffer) error {
	bld, outs := app.Build()
	c, err := compilePipeline(bld, outs, harness.ScaledNarrowParams(app, scale), false, libExecOptions(false), nil)
	if err != nil {
		return err
	}
	prog := c.prog
	defer prog.Close()
	wide := map[string]*engine.Buffer{}
	for n, buf := range inputs {
		wide[n] = engine.ConvertBuffer(buf, engine.ElemF32)
	}
	want, err := prog.Run(wide)
	if err != nil {
		return err
	}
	for _, n := range outs {
		if got[n] == nil {
			return fmt.Errorf("output %q missing", n)
		}
		if got[n].Elem == engine.ElemF32 {
			return fmt.Errorf("output %q was not narrowed", n)
		}
		if d := difftest.Compare(got[n], want[n], 0, 0); d != "" {
			return fmt.Errorf("output %q vs float32 layout: %s", n, d)
		}
	}
	return nil
}

// runLibHand drives the library path (core.Compile, Pipeline.Bind,
// Program.Run, Executor.Recycle) over the Table-2 apps and the narrow
// variants at one thread with hand schedules.
func runLibHand(b *bench) error {
	type maker func(metrics bool) (*compiled, error)
	var makers []maker
	var progs []*libProg
	for _, app := range apps.All() {
		app := app
		makers = append(makers, func(m bool) (*compiled, error) { return compileApp(app, b.inSeed, false, libExecOptions(m)) })
		_, outs := app.Build()
		progs = append(progs, &libProg{name: app.Name, outs: outs, verify: func(got map[string]*engine.Buffer) error {
			return checkTable2(b.cfg.refDir, app, b.inSeed, got)
		}})
	}
	for _, app := range apps.AllNarrow() {
		app := app
		makers = append(makers, func(m bool) (*compiled, error) { return compileNarrow(app, b.inSeed, libExecOptions(m)) })
		_, outs := app.Build()
		p := &libProg{name: app.Name, outs: outs}
		p.verify = func(got map[string]*engine.Buffer) error { return checkNarrow(app, p.c.inputs, got) }
		progs = append(progs, p)
	}

	// Set-up: compile, bind and make inputs for each program, then run one
	// verified warm-up op.
	for _, i := range b.rng.Perm(len(progs)) {
		p := progs[i]
		c, err := makers[i](false)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		p.c = c
		defer c.prog.Close()
		out, err := c.prog.Run(c.inputs)
		if err != nil {
			return fmt.Errorf("%s: first run: %w", p.name, err)
		}
		b.timeOracle(p.name+" first op", func() error {
			if p.fp, err = fingerprints(out, p.outs); err != nil {
				return err
			}
			return p.verify(out)
		})
		c.prog.Executor().Recycle(out)
		if b.cfg.trace {
			tc, err := makers[i](true)
			if err != nil {
				return err
			}
			p.tprog = tc.prog
			defer tc.prog.Close()
			out, err := tc.prog.Run(c.inputs)
			if err != nil {
				return err
			}
			if err := matchFingerprints(out, p.fp); err != nil {
				b.fail("%s: metrics-enabled twin: %v", p.name, err)
			}
			tc.prog.Executor().Recycle(out)
		}
	}
	b.endSetup()

	runMs := map[string][]float64{}
	units := make([]unit, len(progs))
	for i, p := range progs {
		units[i] = func(traced bool) {
			prog := p.c.prog
			if traced {
				prog = p.tprog
			}
			t := time.Now()
			out, err := prog.Run(p.c.inputs)
			run := time.Since(t)
			if err != nil {
				b.op(p.name, 0, err)
				return
			}
			err = b.checked(func() error { return matchFingerprints(out, p.fp) })
			t = time.Now()
			prog.Executor().Recycle(out)
			b.op(p.name, ms(run+time.Since(t)), err)
			if traced && err == nil {
				runMs[p.name] = append(runMs[p.name], ms(run))
			}
		}
	}
	views := func() map[string]progView {
		v := map[string]progView{}
		for _, p := range progs {
			v[p.name] = progView{snap: p.tprog.Executor().Snapshot(), stages: p.tprog.Stats().Stages}
		}
		return v
	}
	var before map[string]progView
	if b.cfg.trace {
		before = views()
	}
	b.timed(units)
	if !b.cfg.trace {
		b.metrics = b.endToEnd(heapRetainedMB(progs))
		return nil
	}
	after := views()
	b.engineLayers(before, after, b.roundOps[1], b.roundWall[1])
	var cs []*compiled
	for _, p := range progs {
		cs = append(cs, p.c)
		b.genHits(p.name, after[p.name].stages)
	}
	b.compileLayers(cs)
	b.runMillis(runMs)
	b.finishLayers()
	return nil
}
