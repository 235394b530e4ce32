package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schedule"
	"repro/internal/service"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{10, 20}, 66); !near(got, 16.6) {
		t.Errorf("percentile([10 20], 66) = %g, want 16.6", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{7, 1, 3, 9}); !near(got, 5) {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %g, want 4", got)
	}
	if !math.IsNaN(geomean([]float64{3, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean of a zero or of nothing should be NaN")
	}
	lat := map[string][]float64{"a": {1, 2, 3}, "b": {4, 8, 12}}
	if got := geoPercentile(lat, 50); !near(got, 4) {
		t.Errorf("geoPercentile(50) = %g, want sqrt(2*8) = 4", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {20, 50}, {25, 60}, {29, 60}, {30, 66}, {39, 66}, {40, 75},
		{99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	lat := map[string][]float64{"a": {1, 2, 3, 4, 5}, "b": {10, 20, 30, 40, 50}}
	if got := geoPercentile(lat, 75); !near(got, math.Sqrt(4*40)) {
		t.Errorf("geoPercentile(75) = %g, want sqrt(4*40)", got)
	}
}

// compileHarris binds harris at its small test size.
func compileHarris(t *testing.T) (*engine.Program, map[string]*engine.Buffer) {
	t.Helper()
	app, err := apps.Get("harris")
	if err != nil {
		t.Fatal(err)
	}
	bld, outs := app.Build()
	pl, err := core.Compile(bld, outs, core.Options{Estimates: app.TestParams, Schedule: schedule.DefaultOptions(), AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pl.Bind(app.TestParams, libExecOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prog.Close)
	in, err := app.Inputs(bld, app.TestParams, 7)
	if err != nil {
		t.Fatal(err)
	}
	return prog, in
}

func TestPerturbedOutputIsAFailedOp(t *testing.T) {
	prog, in := compileHarris(t)
	out, err := prog.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCvlib("harris", in["I"], out); err != nil {
		t.Fatalf("unperturbed output fails the cvlib oracle: %v", err)
	}
	fp, err := fingerprints(out, []string{"harris"})
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(config{workload: "lib-hand-1t"})
	b.op("harris", 1, b.checked(func() error { return matchFingerprints(out, fp) }))

	h := out["harris"]
	h.Set(h.At(40, 50)+1e-3, 40, 50)
	b.op("harris", 1, b.checked(func() error { return matchFingerprints(out, fp) }))
	if err := checkCvlib("harris", in["I"], out); err == nil {
		t.Error("cvlib oracle accepted an output perturbed in one value")
	}
	r := b.result()
	if r.Attempted != 2 || r.Failed != 1 || !r.Correct {
		t.Errorf("result = %+v, want 2 attempted, 1 failed, correct", r)
	}

	// The service path compares checksums.
	want := map[string]string{"harris": "00000000000000aa"}
	if err := matchChecksums(map[string]service.OutputResult{"harris": {Checksum: "00000000000000ab"}}, want); err == nil {
		t.Error("differing checksum accepted")
	}
	if err := matchChecksums(map[string]service.OutputResult{"harris": {Checksum: "00000000000000aa"}}, want); err != nil {
		t.Error(err)
	}
}

func TestNarrowFingerprint(t *testing.T) {
	box := affine.Box{{Lo: 0, Hi: 9}, {Lo: 0, Hi: 9}}
	a := engine.NewBufferElem(box, engine.ElemU8)
	engine.FillPattern(a, 3)
	fp, err := fingerprints(map[string]*engine.Buffer{"o": a}, []string{"o"})
	if err != nil {
		t.Fatal(err)
	}
	a.U8[17]++
	if matchFingerprints(map[string]*engine.Buffer{"o": a}, fp) == nil {
		t.Error("uint8 output perturbed in one value was not detected")
	}
}

func TestStreamWithoutROIFailsRun(t *testing.T) {
	frames := func(skipped int64) []*service.FrameResult {
		var fs []*service.FrameResult
		for f := 0; f < 4; f++ {
			fr := &service.FrameResult{Frame: f}
			if f > 0 {
				fr.TilesExecuted, fr.TilesSkipped = 3, skipped
			}
			fs = append(fs, fr)
		}
		return fs
	}
	for _, c := range []struct {
		skipped    int64
		failed     int64
		wantPassed bool
	}{{skipped: 9, failed: 0, wantPassed: true}, {skipped: 0, failed: 3, wantPassed: false}} {
		b := newBench(config{workload: "stream-roi"})
		var st streamState
		for i, fr := range frames(c.skipped) {
			b.recordFrame(&st, fr, i, time.Millisecond, false)
		}
		b.finishStream(&st)
		r := b.result()
		if r.Attempted != 4 || r.Failed != c.failed || r.Correct != c.wantPassed {
			t.Errorf("skipped=%d: result = %+v, want 4 attempted, %d failed, correct=%v", c.skipped, r, c.failed, c.wantPassed)
		}
	}
}

func TestStreamROIShare(t *testing.T) {
	app, err := apps.Get("harris")
	if err != nil {
		t.Fatal(err)
	}
	p := appParams(app)
	roi := streamROI(p)
	share := float64((roi[0][1]-roi[0][0]+1)*(roi[1][1]-roi[1][0]+1)) / float64(p["R"]*p["C"])
	if share < 0.055 || share > 0.065 {
		t.Errorf("dirty rectangle %v covers %.3f of the image, want about 0.06", roi, share)
	}
}
