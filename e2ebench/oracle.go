package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
	"unsafe"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/cvlib"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/service"
)

// scale is the parameter scale of every workload: the Table-2 bindings the
// checked-in generated kernels (internal/apps/gen) were emitted for.
const scale = 4

// Tolerances of the oracles: the one service Verify requests use for the
// reference interpreter, and the interior absolute tolerance of the cvlib
// cross-checks (internal/cvlib's own tests).
const (
	refAtol   = 1e-5
	refMaxULP = 32
	cvAtol    = 1e-5
)

// cvlibApps are checked against the library-composed implementations;
// every other Table-2 app against the cached reference interpreter output.
var cvlibApps = map[string]bool{"unsharp": true, "harris": true}

// appParams returns an app's scale-4 binding.
func appParams(app *apps.App) map[string]int64 { return harness.ScaledParams(app, scale) }

// graphDigest hashes an app's stage graph (images, domains, case
// conditions and expressions, accumulators, live-outs) so cached
// references go stale when a definition changes.
func graphDigest(app *apps.App) (string, error) {
	bld, outs := app.Build()
	g, err := pipeline.Build(bld, outs...)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	dom := func(d affine.Domain) string {
		s := ""
		for _, iv := range d {
			s += fmt.Sprintf("[%s..%s]", iv.Lo, iv.Hi)
		}
		return s
	}
	for _, n := range sortedKeys(g.Images) {
		fmt.Fprintf(h, "image %s %s\n", n, dom(g.Images[n].Domain()))
	}
	for _, n := range g.Order {
		st := g.Stages[n]
		fmt.Fprintf(h, "stage %s %s self=%v\n", n, dom(st.Decl.Domain()), st.SelfRef)
		if st.IsAccumulator() {
			fmt.Fprintf(h, " acc %v %s %v\n", st.AccOp, st.AccValue, st.AccTarget)
			if rd, ok := st.Decl.(interface{ ReductionDomain() affine.Domain }); ok {
				fmt.Fprintf(h, " red %s\n", dom(rd.ReductionDomain()))
			}
			continue
		}
		for _, c := range st.Cases {
			cond := "-"
			if c.Cond != nil {
				cond = c.Cond.String()
			}
			fmt.Fprintf(h, " case %s = %s\n", cond, c.E)
		}
	}
	fmt.Fprintf(h, "outputs %v\n", g.LiveOuts)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// refBuf is one cached reference output.
type refBuf struct {
	Box  [][2]int64
	Data []float32
}

type refFile struct {
	Key  string
	Outs map[string]refBuf
}

// refKey identifies a reference: app, binding, input seed and graph digest.
func refKey(app *apps.App, seed int64) (string, error) {
	d, err := graphDigest(app)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("app=%s params=%v seed=%d graph=%s", app.Name, appParams(app), seed, d), nil
}

func refPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:8])+".gob")
}

// reference returns the reference interpreter's outputs for app at the
// scale-4 binding and input seed, from the cache when present and
// otherwise computed with engine.Reference (no schedule, tiling or kernels)
// and cached.
func reference(dir string, app *apps.App, seed int64) (map[string]*engine.Buffer, error) {
	key, err := refKey(app, seed)
	if err != nil {
		return nil, err
	}
	path := refPath(dir, key)
	if f, err := os.Open(path); err == nil {
		var rf refFile
		derr := gob.NewDecoder(f).Decode(&rf)
		f.Close()
		if derr == nil && rf.Key == key {
			out := make(map[string]*engine.Buffer, len(rf.Outs))
			for n, rb := range rf.Outs {
				out[n] = fromBox(rb.Box, rb.Data)
			}
			return out, nil
		}
	}
	t := time.Now()
	bld, outs := app.Build()
	params := appParams(app)
	in, err := app.Inputs(bld, params, seed)
	if err != nil {
		return nil, err
	}
	g, err := pipeline.Build(bld, outs...)
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, params, in)
	if err != nil {
		return nil, err
	}
	rf := refFile{Key: key, Outs: map[string]refBuf{}}
	out := map[string]*engine.Buffer{}
	for _, n := range outs {
		b := ref[n]
		rb := refBuf{Data: b.Data[:b.Len()]}
		for _, iv := range b.Box {
			rb.Box = append(rb.Box, [2]int64{iv.Lo, iv.Hi})
		}
		rf.Outs[n] = rb
		out[n] = b
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "ref-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := gob.NewEncoder(f).Encode(&rf); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: made reference %s seed %d in %.1fs\n", app.Name, seed, time.Since(t).Seconds())
	return out, nil
}

// makeAllRefs fills the cache for every reference-checked app and input
// seed (the --refs command).
func makeAllRefs(dir string) error {
	for _, seed := range inputSeeds {
		for _, app := range apps.All() {
			if cvlibApps[app.Name] {
				continue
			}
			if _, err := reference(dir, app, seed); err != nil {
				return fmt.Errorf("reference %s seed %d: %w", app.Name, seed, err)
			}
		}
	}
	return nil
}

// fromBox builds a float32 buffer over an inclusive box with the given
// row-major data.
func fromBox(box [][2]int64, data []float32) *engine.Buffer {
	ab := make(affine.Box, len(box))
	for d, iv := range box {
		ab[d] = affine.Range{Lo: iv[0], Hi: iv[1]}
	}
	b := engine.NewBuffer(ab)
	copy(b.Data, data)
	return b
}

// outputBuffers rebuilds a response's outputs (OutputData mode) as buffers
// and checks that each carries the checksum of its data.
func outputBuffers(outs map[string]service.OutputResult) (map[string]*engine.Buffer, error) {
	res := make(map[string]*engine.Buffer, len(outs))
	for n, o := range outs {
		b := fromBox(o.Box, o.Data)
		if len(o.Data) != b.Len() {
			return nil, fmt.Errorf("output %q: %d values for box %v", n, len(o.Data), o.Box)
		}
		if got := fmt.Sprintf("%016x", difftest.Checksum(b)); got != o.Checksum {
			return nil, fmt.Errorf("output %q: checksum %s does not match its data (%s)", n, o.Checksum, got)
		}
		res[n] = b
	}
	return res, nil
}

// checkTable2 checks a Table-2 app's outputs computed from the app's
// synthetic inputs at seed: unsharp and harris against cvlib on the
// interior, the rest against the cached reference interpreter output.
func checkTable2(refDir string, app *apps.App, seed int64, got map[string]*engine.Buffer) error {
	if cvlibApps[app.Name] {
		bld, _ := app.Build()
		in, err := app.Inputs(bld, appParams(app), seed)
		if err != nil {
			return err
		}
		return checkCvlib(app.Name, in["I"], got)
	}
	ref, err := reference(refDir, app, seed)
	if err != nil {
		return err
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d outputs, reference has %d", len(got), len(ref))
	}
	for _, n := range sortedKeys(ref) {
		if got[n] == nil {
			return fmt.Errorf("output %q missing", n)
		}
		g := got[n]
		if app.Name == "camera" {
			var err error
			if g, err = snapToneCurve(g, ref[n]); err != nil {
				return fmt.Errorf("output %q: %w", n, err)
			}
		}
		if d := difftest.Compare(g, ref[n], refAtol, refMaxULP); d != "" {
			return fmt.Errorf("output %q vs reference: %s", n, d)
		}
	}
	return nil
}

// Camera's output is a gather from a 1024-entry gamma tone curve
// (toneCurve(z) = (z/1023)^(1/2.2)) at an index cast from a float. Where
// that float sits within rounding of an integer, float32 kernels and the
// float64 reference interpreter pick neighbouring entries, and near z = 0
// neighbouring entries are up to 0.04 apart. Such one-entry flips are
// correct outputs; at most maxCurveFlips of the values may show one.
const maxCurveFlips = 1e-4

// snapToneCurve returns a copy of got in which every value that differs
// from the reference beyond Verify's tolerance, while both are tone-curve
// entries one index apart, is replaced by the reference value. It fails
// when more than maxCurveFlips of the values need that.
func snapToneCurve(got, ref *engine.Buffer) (*engine.Buffer, error) {
	if got.Len() != ref.Len() {
		return got, nil
	}
	lut := make([]float64, 1024)
	for z := range lut {
		lut[z] = math.Pow(float64(z)/1023, 1/2.2)
	}
	entry := func(v float32) int {
		z := sort.SearchFloat64s(lut, float64(v))
		for _, k := range []int{z - 1, z} {
			if k >= 0 && k < len(lut) && math.Abs(lut[k]-float64(v)) <= 1e-6 {
				return k
			}
		}
		return -1
	}
	out := *got
	out.Data = append([]float32(nil), got.Data[:got.Len()]...)
	flips := 0
	for i, v := range out.Data {
		w := ref.Data[i]
		if math.Abs(float64(v)-float64(w)) <= refAtol {
			continue
		}
		kg, kr := entry(v), entry(w)
		if kg >= 0 && kr >= 0 && (kg-kr == 1 || kr-kg == 1) {
			out.Data[i] = w
			flips++
		}
	}
	if float64(flips) > maxCurveFlips*float64(len(out.Data)) {
		return got, fmt.Errorf("%d of %d values are one tone-curve entry off the reference (limit %g)", flips, len(out.Data), maxCurveFlips)
	}
	return &out, nil
}

// checkCvlib compares unsharp's "masked" or harris's "harris" output with
// the library-composed implementation on the interior, where the two
// definitions agree.
func checkCvlib(name string, in *engine.Buffer, got map[string]*engine.Buffer) error {
	switch name {
	case "harris":
		out := got["harris"]
		if out == nil {
			return fmt.Errorf("output harris missing")
		}
		want := cvlib.Harris(in)
		R, C := in.Box[0].Hi-1, in.Box[1].Hi-1
		for x := int64(3); x <= R-2; x++ {
			for y := int64(3); y <= C-2; y++ {
				if d := math.Abs(float64(out.At(x, y)) - float64(want.At(x, y))); !(d <= cvAtol) {
					return fmt.Errorf("harris(%d,%d) = %v, cvlib %v", x, y, out.At(x, y), want.At(x, y))
				}
			}
		}
	case "unsharp":
		out := got["masked"]
		if out == nil {
			return fmt.Errorf("output masked missing")
		}
		want := cvlib.UnsharpMask(in)
		w := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
		R, C := in.Box[1].Hi-3, in.Box[2].Hi-3
		for c := int64(0); c < 3; c++ {
			plane := cvlib.Channel(in, c)
			blur := engine.NewBuffer(plane.Box)
			cvlib.SepFilter2D(blur, plane, w, w, 1)
			for x := int64(3); x <= R; x++ {
				for y := int64(3); y <= C; y++ {
					g := float64(out.At(c, x, y))
					if math.Abs(g-float64(want.At(c, x, y))) <= cvAtol {
						continue
					}
					// masked selects the input or the sharpened value on
					// |I - blur| < 0.01; where that difference sits within
					// rounding of the threshold, either branch is correct.
					v, bl := float64(plane.At(x, y)), float64(blur.At(x, y))
					if math.Abs(math.Abs(v-bl)-0.01) <= cvAtol &&
						(math.Abs(g-v) <= cvAtol || math.Abs(g-(4*v-3*bl)) <= cvAtol) {
						continue
					}
					return fmt.Errorf("masked(%d,%d,%d) = %v, cvlib %v", c, x, y, out.At(c, x, y), want.At(c, x, y))
				}
			}
		}
	default:
		return fmt.Errorf("no cvlib oracle for %s", name)
	}
	return nil
}

// hashSeed keys the client's output fingerprints for this process.
var hashSeed = maphash.MakeSeed()

// fingerprint hashes a buffer's box, element type and raw stored values.
// It is the client's per-op output check on the library path: an op whose
// fingerprint differs from the verified op's is a failed op.
func fingerprint(b *engine.Buffer) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	fmt.Fprintf(&h, "%v %d;", b.Box, b.Elem)
	n := b.Len()
	var raw []byte
	switch b.Elem {
	case engine.ElemU8:
		raw = b.U8[:n]
	case engine.ElemU16:
		raw = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.U16))), 2*n)
	case engine.ElemI32:
		raw = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.I32))), 4*n)
	default:
		raw = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.Data))), 4*n)
	}
	h.Write(raw)
	return h.Sum64()
}

// fingerprints maps each named output to its fingerprint.
func fingerprints(outs map[string]*engine.Buffer, names []string) (map[string]uint64, error) {
	fp := make(map[string]uint64, len(names))
	for _, n := range names {
		if outs[n] == nil {
			return nil, fmt.Errorf("output %q missing", n)
		}
		fp[n] = fingerprint(outs[n])
	}
	return fp, nil
}

// matchFingerprints reports the first output whose fingerprint differs
// from the verified op's.
func matchFingerprints(outs map[string]*engine.Buffer, want map[string]uint64) error {
	for _, n := range sortedKeys(want) {
		b := outs[n]
		if b == nil {
			return fmt.Errorf("output %q missing", n)
		}
		if fingerprint(b) != want[n] {
			return fmt.Errorf("output %q differs from the verified op's", n)
		}
	}
	return nil
}

// matchChecksums reports the first response output whose checksum differs
// from the verified op's.
func matchChecksums(outs map[string]service.OutputResult, want map[string]string) error {
	if len(outs) != len(want) {
		return fmt.Errorf("%d outputs, verified op had %d", len(outs), len(want))
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if outs[n].Checksum != want[n] {
			return fmt.Errorf("output %q checksum %s, verified op had %s", n, outs[n].Checksum, want[n])
		}
	}
	return nil
}
