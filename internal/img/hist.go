package img

import (
	"math"

	"verro/internal/geom"
)

// HSVHist holds normalized hue, saturation and value histograms of an image
// region. The bin counts are the h, s, v partition sizes of paper
// Algorithm 2 (line 2: "equally partition H, S, V value ranges").
type HSVHist struct {
	H, S, V []float64 // each sums to 1 (or is all-zero for an empty region)
}

// NewHSVHist computes the HSV histogram of the whole image with the given
// number of bins per channel.
func NewHSVHist(m *Image, hBins, sBins, vBins int) *HSVHist {
	return NewHSVHistRegion(m, m.Bounds(), hBins, sBins, vBins)
}

// NewHSVHistRegion computes the HSV histogram of region r of m.
//
// Pixels are binned with exact integer arithmetic (hsvBinner) and counted
// into integers, which are divided by the pixel count at the end. The
// counts are exact either way, so the normalized histogram is bit-identical
// to converting each pixel with ToHSV and binning the floats.
func NewHSVHistRegion(m *Image, r geom.Rect, hBins, sBins, vBins int) *HSVHist {
	h := &HSVHist{
		H: make([]float64, hBins),
		S: make([]float64, sBins),
		V: make([]float64, vBins),
	}
	r = r.Clip(m.Bounds())
	if r.Empty() {
		return h
	}
	w, n := r.Dx(), r.Dx()*r.Dy()
	k := newHSVBinner(hBins, sBins, vBins)
	hc := make([]int, hBins)
	sc := make([]int, sBins)
	vc := make([]int, vBins)
	for y := r.Min.Y; y < r.Max.Y; y++ {
		off := m.offset(r.Min.X, y)
		k.countRow(m.Pix[off:off+w*3], hc, sc, vc)
	}
	normalize(h.H, hc, n)
	normalize(h.S, sc, n)
	normalize(h.V, vc, n)
	return h
}

// normalize writes counts/n into dst.
func normalize(dst []float64, counts []int, n int) {
	k := len(dst)
	if len(counts) < k {
		k = len(counts)
	}
	for i := 0; i < k; i++ {
		dst[i] = float64(counts[i]) / float64(n)
	}
}

// maxExactBins bounds the bin counts hsvBinner bins in integers: with at
// most 2^12 bins every numerator stays below 2^23, as the reciprocal
// division needs, and the float path's rounding error (a few ulps of the
// bin count) stays far below the 1/(6·255)-of-a-bin gap that separates an
// off-boundary exact value from the nearest bin edge. Larger
// configurations take the float path for every pixel.
const maxExactBins = 1 << 12

// recip[d] = ⌈2^34/d⌉. For 0 ≤ t < 2^23 and 1 ≤ d < 2^11, t·recip[d]/2^34
// exceeds t/d by less than t·d/2^34/d < 1/d, so its floor is exactly ⌊t/d⌋:
// a multiply and a shift instead of a hardware divide. recip[0] = 0 makes
// the quotient 0 for the grey and black pixels whose divisor is 0.
var recip = func() (r [2048]int64) {
	for d := int64(1); d < int64(len(r)); d++ {
		r[d] = (1<<34 + d - 1) / d
	}
	return r
}()

// hsvBinner maps 8-bit RGB pixels to HSV histogram bins, bin for bin the
// same as binning ToHSV's floats, in integer arithmetic for almost every
// pixel. With M, m the largest and smallest channel and Δ = M − m:
//
//   - V = M/255, so the V bin is ⌊M·vBins/255⌋;
//   - S = Δ/M, so the S bin is ⌊Δ·sBins/M⌋;
//   - H/360 = hn/(6Δ), where hn is the exact hue numerator of the sector of
//     whichever channel is the maximum (ties go R, G, B, the order ToHSV
//     tests them), so the H bin is ⌊hn·hBins/(6Δ)⌋.
//
// Each bin is the floor of an exact rational, clamped to the last bin as
// binIndex clamps. Off a bin boundary that rational is at least 1/(6·255)
// of a bin from the nearest edge, which the float path's few-ulp error
// cannot cross, so both paths agree. When a rational falls exactly on an
// interior boundary the float path may land on either side of it, so that
// pixel goes through ToHSV and binIndex instead: 1.2–2.1% of all colours
// for the configurations in use, and 4–9% of the pixels of the generated
// MOT03 and MOT06 frames, whose colours are weakly saturated.
// hist_equiv_test.go checks every 24-bit colour.
type hsvBinner struct {
	h, s, v int
	exact   bool // every bin count is in [1, maxExactBins]
}

func newHSVBinner(hBins, sBins, vBins int) hsvBinner {
	in := func(b int) bool { return b >= 1 && b <= maxExactBins }
	return hsvBinner{h: hBins, s: sBins, v: vBins, exact: in(hBins) && in(sBins) && in(vBins)}
}

// countRow adds the H, S and V bins of every pixel of row (packed RGB) to
// hc, sc and vc. The integer path selects with masks instead of branches:
// which channel is largest varies from pixel to pixel, and mispredicted
// branches would cost more than the arithmetic.
func (k hsvBinner) countRow(row []uint8, hc, sc, vc []int) {
	hBins, sBins, vBins := int64(k.h), int64(k.s), int64(k.v)
	n := len(row) / 3
	for x := 0; x < n; x++ {
		p := row[x*3 : x*3+3]
		r, g, b := int64(p[0]), int64(p[1]), int64(p[2])
		mx := maxSel(maxSel(r, g), b)
		d := mx - minSel(minSel(r, g), b)
		// The hue numerator of the B sector, replaced by the G sector's
		// when G is the maximum and by the R sector's when R is.
		hn := r + 4*d - g
		hn ^= (hn ^ (b + 2*d - r)) & isZero(mx-g)
		hr := g - b
		hr += 6 * d & (hr >> 63) // the float path wraps a negative (g−b)/Δ by +360°
		hn ^= (hn ^ hr) & isZero(mx-r)
		dh := 6 * d
		th, ts, tv := hn*hBins, d*sBins, mx*vBins
		qh := th * recip[uint(dh)&2047] >> 34
		qs := ts * recip[uint(mx)&2047] >> 34
		qv := tv * recip[255] >> 34
		var hb, sb, vb int
		if !k.exact || onBoundary(th-qh*dh, qh, hBins)|onBoundary(ts-qs*mx, qs, sBins)|onBoundary(tv-qv*255, qv, vBins) != 0 {
			c := ToHSV(RGB{R: p[0], G: p[1], B: p[2]})
			hb, sb, vb = binIndex(c.H/360, k.h), binIndex(c.S, k.s), binIndex(c.V, k.v)
		} else {
			hb, sb, vb = int(lastBin(qh, hBins)), int(lastBin(qs, sBins)), int(lastBin(qv, vBins))
		}
		// The bins are in range by construction; the guards restate it so
		// the counts below are bounds-check free.
		if hb < 0 || hb >= len(hc) {
			continue
		}
		if sb < 0 || sb >= len(sc) {
			continue
		}
		if vb < 0 || vb >= len(vc) {
			continue
		}
		hc[hb]++
		sc[sb]++
		vc[vb]++
	}
}

// maxSel and minSel are branch-free max and min.
func maxSel(a, b int64) int64 { d := a - b; return a - d&(d>>63) }
func minSel(a, b int64) int64 { d := a - b; return b + d&(d>>63) }

// isZero returns -1 (all ones) when x == 0 and 0 when x > 0.
func isZero(x int64) int64 { return (x - 1) >> 63 }

// onBoundary returns -1 when a quotient q with remainder rem lies on an
// interior bin boundary (rem == 0 and 0 < q < bins), else 0.
func onBoundary(rem, q, bins int64) int64 { return isZero(rem) &^ isZero(q) & ((q - bins) >> 63) }

// lastBin returns min(q, bins−1) for q ≥ 0, binIndex's clamp.
func lastBin(q, bins int64) int64 { c := q - bins + 1; return q - c&^(c>>63) }

// binIndex maps a value in [0,1] to a bin in [0, bins).
func binIndex(v float64, bins int) int {
	i := int(v * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Intersection returns the histogram-intersection similarity between two
// normalized histograms: sum of per-bin minimums, in [0, 1].
func Intersection(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Min(a[i], b[i])
	}
	return sum
}

// Similarity returns the weighted HSV histogram-intersection similarity of
// paper Algorithm 2 line 10: alpha·Sim_H + beta·Sim_S + gamma·Sim_V.
func (h *HSVHist) Similarity(o *HSVHist, alpha, beta, gamma float64) float64 {
	return alpha*Intersection(h.H, o.H) +
		beta*Intersection(h.S, o.S) +
		gamma*Intersection(h.V, o.V)
}

// Entropy returns the weighted HSV histogram entropy used to pick the key
// frame of a segment (Algorithm 2 lines 18-20). Empty bins contribute zero.
func (h *HSVHist) Entropy(alpha, beta, gamma float64) float64 {
	return alpha*entropy(h.H) + beta*entropy(h.S) + gamma*entropy(h.V)
}

func entropy(p []float64) float64 {
	var e float64
	for _, v := range p {
		if v > 0 {
			e -= v * math.Log(v)
		}
	}
	return e
}

// Mix accumulates o into h with weight w (used to maintain the running
// histogram of a growing segment). Both histograms stay normalized if
// weights are convex.
func (h *HSVHist) Mix(o *HSVHist, w float64) {
	mixInto(h.H, o.H, w)
	mixInto(h.S, o.S, w)
	mixInto(h.V, o.V, w)
}

func mixInto(dst, src []float64, w float64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] = (1-w)*dst[i] + w*src[i]
	}
}

// CosineSim returns the cosine similarity of two histograms, used by the
// tracker's appearance term. Returns 0 when either vector is zero.
func CosineSim(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb) //lint:allow divzero guard above proves na,nb != 0 and squares are nonnegative, so the product's root is positive (relational fact outside the interval domain)
}

// Concat returns the concatenation H||S||V as a flat feature vector.
func (h *HSVHist) Concat() []float64 {
	out := make([]float64, 0, len(h.H)+len(h.S)+len(h.V))
	out = append(out, h.H...)
	out = append(out, h.S...)
	out = append(out, h.V...)
	return out
}
