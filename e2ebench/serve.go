package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/service"
)

// newService returns the shipped polymage-serve configuration in-process:
// auto-scheduling on, executor metrics on, pooled buffers, threads =
// GOMAXPROCS, default admission limits. The generated kernels are linked
// by this package's import of internal/apps/gen.
func newService() *service.Service {
	return service.New(service.Config{AutoSchedule: true})
}

// serviceExecOptions are the execution options the service compiles with.
func serviceExecOptions() engine.ExecOptions {
	return engine.ExecOptions{Threads: runtime.GOMAXPROCS(0), Fast: true, ReuseBuffers: true, Metrics: true}
}

// serviceViews reads every cached program's executor snapshot and
// lowering decisions from the service's metrics, keyed by app name.
func serviceViews(svc *service.Service) map[string]progView {
	v := map[string]progView{}
	for _, pm := range svc.Metrics().Programs {
		v[pm.Pipeline] = progView{snap: pm.Snapshot, stages: pm.Stages}
	}
	return v
}

// outsideCompile compiles the named apps outside the service with the
// service's options (the search is deterministic, so this is the same
// work the service's cold requests do) and sets the compile layers.
func (b *bench) outsideCompile(names []string) (map[string]*compiled, error) {
	cs := map[string]*compiled{}
	var list []*compiled
	for _, n := range names {
		app, err := apps.Get(n)
		if err != nil {
			return nil, err
		}
		c, err := compileApp(app, b.inSeed, true, serviceExecOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		c.prog.Close()
		cs[n] = c
		list = append(list, c)
	}
	b.compileLayers(list)
	return cs, nil
}

type serveProg struct {
	app  *apps.App
	req  service.RunRequest
	sums map[string]string
	// Traced run only: the verified outputs (to time encoding on) and the
	// cold request's wall and response.
	outs     map[string]*engine.Buffer
	coldWall time.Duration
	cold     *service.RunResponse
}

// runServeAuto drives service.Do over the seven Table-2 apps.
func runServeAuto(b *bench) error {
	ctx := context.Background()
	var outside map[string]*compiled
	if b.cfg.trace {
		var err error
		if outside, err = b.outsideCompile(apps.Names()); err != nil {
			return err
		}
	}
	svc := newService()
	defer svc.Close(ctx)

	var progs []*serveProg
	for _, app := range apps.All() {
		progs = append(progs, &serveProg{app: app, req: service.RunRequest{App: app.Name, Params: appParams(app), Seed: b.inSeed}})
	}
	// Set-up: one cold request per app (compile, input synthesis, run),
	// asking for the output data so the first op can be verified.
	for _, i := range b.rng.Perm(len(progs)) {
		p := progs[i]
		req := p.req
		req.Output = service.OutputData
		t := time.Now()
		resp, err := svc.Do(ctx, &req)
		p.coldWall = time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: first request: %w", p.app.Name, err)
		}
		b.timeOracle(p.app.Name+" first op", func() error {
			outs, err := outputBuffers(resp.Outputs)
			if err != nil {
				return err
			}
			p.sums = map[string]string{}
			for n, o := range resp.Outputs {
				p.sums[n] = o.Checksum
			}
			if b.cfg.trace {
				p.outs = outs
			}
			return checkTable2(b.cfg.refDir, p.app, b.inSeed, outs)
		})
		resp.Outputs = nil
		p.cold = resp
	}
	b.endSetup()

	runMs := map[string][]float64{}
	wallMs := map[string][]float64{}
	units := make([]unit, len(progs))
	for i, p := range progs {
		units[i] = func(traced bool) {
			t := time.Now()
			resp, err := svc.Do(ctx, &p.req)
			d := time.Since(t)
			if err == nil {
				err = b.checked(func() error { return matchChecksums(resp.Outputs, p.sums) })
			}
			b.op(p.app.Name, ms(d), err)
			if traced && err == nil {
				runMs[p.app.Name] = append(runMs[p.app.Name], resp.RunMillis)
				wallMs[p.app.Name] = append(wallMs[p.app.Name], ms(d))
			}
		}
	}
	var before map[string]progView
	if b.cfg.trace {
		before = serviceViews(svc)
	}
	b.timed(units)
	if !b.cfg.trace {
		b.metrics = b.endToEnd(heapRetainedMB(svc))
		return nil
	}

	after := serviceViews(svc)
	b.engineLayers(before, after, b.attempted, b.t1.at.Sub(b.t0.at)-b.check)
	for _, p := range progs {
		b.genHits(p.app.Name, after[p.app.Name].stages)
	}
	b.runMillis(runMs)

	// Encode: difftest.Checksum over the app's outputs, timed from outside
	// on the verified buffers (same shapes and contents as the response's).
	enc := map[string]float64{}
	for _, p := range progs {
		var reps []float64
		for r := 0; r < 5; r++ {
			t := time.Now()
			for _, n := range sortedKeys(p.outs) {
				difftest.Checksum(p.outs[n])
			}
			reps = append(reps, ms(time.Since(t)))
		}
		enc[p.app.Name] = median(reps)
	}
	var encs, overs []float64
	var wallSum, overSum, coldSum, coldResid float64
	for _, p := range progs {
		name := p.app.Name
		for k, w := range wallMs[name] {
			o := w - runMs[name][k] - enc[name]
			encs = append(encs, enc[name])
			overs = append(overs, o)
			wallSum += w
			overSum += o
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %-12s do=%.3fms run=%.3fms encode=%.3fms (%.0f%% of do)\n",
			name, median(wallMs[name]), median(runMs[name]), enc[name], 100*enc[name]/median(wallMs[name]))
		// Cold request: compile (service clock) + inputs (outside clock) +
		// run + encode against the request's wall.
		cw := ms(p.coldWall)
		coldSum += cw
		coldResid += cw - p.cold.CompileMillis - ms(outside[name].inWall) - p.cold.RunMillis - enc[name]
	}
	b.setLayer("service.encode_ms", mean(encs))
	b.setLayer("service.overhead_ms", mean(overs))
	b.setLayer("closure.service_resid_frac", overSum/wallSum)
	b.setLayer("closure.service_cold_resid_frac", coldResid/coldSum)
	httpMs, err := httpOverhead(ctx, svc, progs)
	if err != nil {
		return err
	}
	b.setLayer("service.http_ms", httpMs)
	m := svc.Metrics()
	b.setLayer("service.cache_hit_frac", float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses))
	b.finishLayers()
	return nil
}

// httpOverhead measures, for reference, what the HTTP surface adds to
// service.Do: per app, three POST /run requests through Handler with an
// in-memory recorder (no socket) alternating with three direct Do calls;
// the mean over apps of the difference of the fastest of each.
func httpOverhead(ctx context.Context, svc *service.Service, progs []*serveProg) (float64, error) {
	h := svc.Handler()
	var diffs []float64
	for _, p := range progs {
		body, err := json.Marshal(&p.req)
		if err != nil {
			return 0, err
		}
		var viaHTTP, direct []float64
		for r := 0; r < 3; r++ {
			t := time.Now()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
			viaHTTP = append(viaHTTP, ms(time.Since(t)))
			if w.Code != 200 {
				return 0, fmt.Errorf("%s: POST /run answered %d: %s", p.app.Name, w.Code, w.Body.String())
			}
			t = time.Now()
			if _, err := svc.Do(ctx, &p.req); err != nil {
				return 0, err
			}
			direct = append(direct, ms(time.Since(t)))
		}
		diffs = append(diffs, percentile(viaHTTP, 0)-percentile(direct, 0))
	}
	return mean(diffs), nil
}
