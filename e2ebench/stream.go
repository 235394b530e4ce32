package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/service"
)

// Stream shape: each timed op is one frame of a streamFrames-frame
// request; the set-up and closing verification streams are verifyFrames
// long and return their output data.
const (
	streamFrames = 64
	verifyFrames = 4
)

// streamROI returns a centred dirty rectangle covering about 6% of harris's
// R×C interior (24.5% of each side).
func streamROI(params map[string]int64) [][2]int64 {
	R, C := params["R"], params["C"]
	h, w := R*245/1000, C*245/1000
	r0, c0 := 1+(R-h)/2, 1+(C-w)/2
	return [][2]int64{{r0, r0 + h - 1}, {c0, c0 + w - 1}}
}

// errNoSkip marks a frame after frame 0 that recomputed every tile.
var errNoSkip = errors.New("frame after frame 0 skipped no tile: the dirty-rectangle path did not engage")

// streamState accumulates the frames of the timed streams.
type streamState struct {
	skipped           int64 // tiles skipped by frames after frame 0
	executed          int64 // tiles executed by frames after frame 0
	later             int64 // frames after frame 0
	runMs, overheadMs []float64
}

// recordFrame records one streamed frame as an op. want is the frame index
// expected next; d is the client-observed time since the previous frame
// (or since the request started). A frame out of order, or a frame after
// frame 0 that skipped no tile, is a failed op.
func (b *bench) recordFrame(st *streamState, fr *service.FrameResult, want int, d time.Duration, traced bool) {
	var err error
	switch {
	case fr.Frame != want:
		err = fmt.Errorf("frame %d arrived in place of frame %d", fr.Frame, want)
	case fr.Frame > 0 && fr.TilesSkipped == 0:
		err = errNoSkip
	}
	b.op("harris", ms(d), err)
	if fr.Frame > 0 {
		st.skipped += fr.TilesSkipped
		st.executed += fr.TilesExecuted
		st.later++
	}
	if traced && err == nil {
		st.runMs = append(st.runMs, fr.RunMillis)
		st.overheadMs = append(st.overheadMs, ms(d)-fr.RunMillis)
	}
}

// finishStream fails the run when the ROI path never engaged.
func (b *bench) finishStream(st *streamState) {
	if st.later > 0 && st.skipped == 0 {
		b.fail("stream: no frame after frame 0 skipped a tile in %d frames", st.later)
	}
}

// runStreamROI drives harris through service.DoStream with a 6% dirty
// rectangle and no output payload.
func runStreamROI(b *bench) error {
	ctx := context.Background()
	app, err := apps.Get("harris")
	if err != nil {
		return err
	}
	params := appParams(app)
	if b.cfg.trace {
		if _, err := b.outsideCompile([]string{app.Name}); err != nil {
			return err
		}
	}
	svc := newService()
	defer svc.Close(ctx)
	req := service.RunRequest{
		App: app.Name, Params: params, Seed: b.inSeed,
		Frames: streamFrames, ROI: streamROI(params), Output: service.OutputNone,
	}
	vreq := req
	vreq.Frames, vreq.Output = verifyFrames, service.OutputData
	collect := func() ([]*service.FrameResult, error) {
		var frames []*service.FrameResult
		err := svc.DoStream(ctx, &vreq, func(fr *service.FrameResult) error {
			frames = append(frames, fr)
			return nil
		})
		return frames, err
	}

	// Set-up: the cold request (compile, input synthesis, warm-up frames)
	// is a short stream whose frames are verified.
	first, err := collect()
	if err != nil {
		return fmt.Errorf("verification stream: %w", err)
	}
	b.timeOracle("stream verification", func() error { return verifyStream(ctx, svc, app, &vreq, first) })
	sums := frameChecksums(first)
	first = nil
	b.endSetup()

	var st streamState
	var before map[string]progView
	if b.cfg.trace {
		before = serviceViews(svc)
	}
	b.timed([]unit{func(traced bool) {
		n := 0
		last := time.Now()
		err := svc.DoStream(ctx, &req, func(fr *service.FrameResult) error {
			now := time.Now()
			b.recordFrame(&st, fr, n, now.Sub(last), traced)
			last = now
			n++
			return nil
		})
		for ; n < req.Frames; n++ {
			b.op(app.Name, 0, fmt.Errorf("stream ended before frame %d: %v", n, err))
		}
	}})
	b.finishStream(&st)
	if !b.cfg.trace {
		b.metrics = b.endToEnd(heapRetainedMB(svc))
	}
	// After the timed phase the program must still reproduce the set-up
	// stream frame for frame.
	b.timeOracle("closing verification stream", func() error {
		again, err := collect()
		if err != nil {
			return err
		}
		got := frameChecksums(again)
		for f, want := range sums {
			if f >= len(got) || fmt.Sprint(got[f]) != fmt.Sprint(want) {
				return fmt.Errorf("frame %d checksums %v, set-up stream had %v", f, got, sums)
			}
		}
		return nil
	})
	if !b.cfg.trace {
		return nil
	}

	after := serviceViews(svc)
	b.engineLayers(before, after, b.attempted, b.t1.at.Sub(b.t0.at)-b.check)
	b.genHits(app.Name, after[app.Name].stages)
	if st.later > 0 {
		b.setLayer("stream.tiles_skipped_frac", float64(st.skipped)/float64(st.skipped+st.executed))
		b.setLayer("stream.tiles_executed_per_frame", float64(st.executed)/float64(st.later))
	}
	b.setLayer("stream.frame_ms", median(st.runMs))
	b.runMillis(map[string][]float64{app.Name: st.runMs})
	b.setLayer("service.overhead_ms", mean(st.overheadMs))
	over, run := mean(st.overheadMs), mean(st.runMs)
	b.setLayer("closure.service_resid_frac", over/(over+run))
	m := svc.Metrics()
	b.setLayer("service.cache_hit_frac", float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses))
	b.finishLayers()
	return nil
}

// frameChecksums lists each frame's output checksums.
func frameChecksums(frames []*service.FrameResult) []map[string]string {
	out := make([]map[string]string, len(frames))
	for i, fr := range frames {
		out[i] = map[string]string{}
		for n, o := range fr.Outputs {
			out[i][n] = o.Checksum
		}
	}
	return out
}

// verifyStream checks the set-up stream: frames in order; frame 0 against
// cvlib on the request's synthetic inputs; every later frame skipping
// tiles; and the final frame bit-equal to a single-shot request on the
// final frame's inputs, rebuilt from the request's seed.
func verifyStream(ctx context.Context, svc *service.Service, app *apps.App, req *service.RunRequest, frames []*service.FrameResult) error {
	if len(frames) != req.Frames {
		return fmt.Errorf("%d frames, requested %d", len(frames), req.Frames)
	}
	for i, fr := range frames {
		if fr.Frame != i {
			return fmt.Errorf("frame %d arrived in place of frame %d", fr.Frame, i)
		}
		if i > 0 && fr.TilesSkipped == 0 {
			return fmt.Errorf("frame %d: %w", i, errNoSkip)
		}
	}
	bld, _ := app.Build()
	in, err := app.Inputs(bld, req.Params, req.Seed)
	if err != nil {
		return err
	}
	got0, err := outputBuffers(frames[0].Outputs)
	if err != nil {
		return err
	}
	if err := checkCvlib(app.Name, in["I"], got0); err != nil {
		return fmt.Errorf("frame 0: %w", err)
	}
	// DoStream refreshes the ROI of every rank-matching input, in name
	// order, with FillPattern(seed*1009 + frame*37 + index); each refresh
	// rewrites the whole ROI, so the last one fixes the final inputs.
	last := req.Frames - 1
	roi := make(affine.Box, len(req.ROI))
	for d, iv := range req.ROI {
		roi[d] = affine.Range{Lo: iv[0], Hi: iv[1]}
	}
	data := map[string][]float32{}
	for i, name := range sortedKeys(in) {
		buf := in[name]
		if len(buf.Box) == len(roi) {
			inter := make(affine.Box, len(roi))
			for d := range roi {
				inter[d] = roi[d].Intersect(buf.Box[d])
			}
			tmp := engine.NewBuffer(inter)
			engine.FillPattern(tmp, req.Seed*1009+int64(last)*37+int64(i))
			buf.CopyRegion(tmp, inter)
		}
		data[name] = buf.Data[:buf.Len()]
	}
	single := service.RunRequest{App: req.App, Params: req.Params, Inputs: data, Output: service.OutputData}
	resp, err := svc.Do(ctx, &single)
	if err != nil {
		return fmt.Errorf("single-shot request: %w", err)
	}
	want, err := outputBuffers(resp.Outputs)
	if err != nil {
		return err
	}
	gotN, err := outputBuffers(frames[last].Outputs)
	if err != nil {
		return err
	}
	for _, n := range sortedKeys(want) {
		if d := difftest.Compare(gotN[n], want[n], 0, 0); d != "" {
			return fmt.Errorf("final frame %q differs from the single-shot request: %s", n, d)
		}
	}
	return nil
}
