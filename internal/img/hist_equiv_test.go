package img

// Oracle for the integer HSV binning of NewHSVHistRegion: the float loop it
// replaced (ToHSV, then binIndex on each channel, counting into float64
// bins) is kept here as the reference, and the new kernel must agree with
// it bin for bin on every 24-bit colour and count for count on whole
// regions.

import (
	"fmt"
	"testing"

	"verro/internal/geom"
)

// hsvHistRef is the float loop NewHSVHistRegion used before the integer
// kernel, verbatim up to the lint annotations.
func hsvHistRef(m *Image, r geom.Rect, hBins, sBins, vBins int) *HSVHist {
	h := &HSVHist{
		H: make([]float64, hBins),
		S: make([]float64, sBins),
		V: make([]float64, vBins),
	}
	r = r.Clip(m.Bounds())
	n := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			c := ToHSV(m.At(x, y))
			h.H[binIndex(c.H/360, hBins)]++
			h.S[binIndex(c.S, sBins)]++
			h.V[binIndex(c.V, vBins)]++
			n++
		}
	}
	if n > 0 {
		for i := range h.H {
			h.H[i] /= float64(n)
		}
		for i := range h.S {
			h.S[i] /= float64(n)
		}
		for i := range h.V {
			h.V[i] /= float64(n)
		}
	}
	return h
}

// hsvConfigs are the bin configurations the pipeline uses — 16/8/8 for key
// frames, 8/4/4 for the tracker and the attacks, 12/4/4 for BenchmarkHotHist
// — plus an odd one whose boundaries fall elsewhere.
var hsvConfigs = [][3]int{{16, 8, 8}, {8, 4, 4}, {12, 4, 4}, {7, 5, 3}}

// TestHSVBinsExhaustive checks every 24-bit colour under every
// configuration: binning it as a one-pixel row must count it in exactly the
// bins the float path picks. ToHSV runs once per colour and is shared by all
// configurations.
func TestHSVBinsExhaustive(t *testing.T) {
	type counter struct {
		cfg        [3]int
		k          hsvBinner
		hc, sc, vc []int
	}
	cs := make([]counter, len(hsvConfigs))
	for i, c := range hsvConfigs {
		cs[i] = counter{cfg: c, k: newHSVBinner(c[0], c[1], c[2]),
			hc: make([]int, c[0]), sc: make([]int, c[1]), vc: make([]int, c[2])}
		if !cs[i].k.exact {
			t.Fatalf("config %v does not take the integer path", c)
		}
	}
	row := make([]uint8, 3)
	for rgb := 0; rgb < 1<<24; rgb++ {
		row[0], row[1], row[2] = uint8(rgb>>16), uint8(rgb>>8), uint8(rgb)
		c := ToHSV(RGB{R: row[0], G: row[1], B: row[2]})
		for _, ct := range cs {
			wh, ws, wv := binIndex(c.H/360, ct.cfg[0]), binIndex(c.S, ct.cfg[1]), binIndex(c.V, ct.cfg[2])
			ct.k.countRow(row, ct.hc, ct.sc, ct.vc)
			if ct.hc[wh] != 1 || ct.sc[ws] != 1 || ct.vc[wv] != 1 {
				t.Fatalf("config %v, RGB%v: counts H%v S%v V%v, float path bins %d/%d/%d",
					ct.cfg, row, ct.hc, ct.sc, ct.vc, wh, ws, wv)
			}
			ct.hc[wh], ct.sc[ws], ct.vc[wv] = 0, 0, 0
		}
	}
}

// TestRecipDivision checks exactBin's reciprocal division at the extremes
// of its domain: every divisor, numerators around each multiple of it near
// the top of the range, and the largest numerator.
func TestRecipDivision(t *testing.T) {
	const tMax = 1<<23 - 1
	for d := int64(1); d < int64(len(recip)); d++ {
		for _, n := range []int64{0, 1, d - 1, d, d + 1, tMax/d*d - 1, tMax / d * d, tMax} {
			if got := n * recip[d] >> 34; got != n/d {
				t.Fatalf("%d/%d: reciprocal gives %d, want %d", n, d, got, n/d)
			}
		}
	}
}

// TestNewHSVHistRegionEquiv compares the kernel with the reference loop on
// random images over regions inside, clipped by, straddling, outside and
// degenerate against the image, including configurations outside the
// integer path.
func TestNewHSVHistRegionEquiv(t *testing.T) {
	m := lcgImage(53, 37, 11)
	// A second image of few distinct levels puts many pixels on boundaries.
	q := lcgImage(40, 30, 5)
	for i := range q.Pix {
		q.Pix[i] = q.Pix[i] &^ 0x3f
	}
	regions := []geom.Rect{
		m.Bounds(),
		geom.R(3, 4, 20, 31),
		geom.R(-5, -7, 10, 12),   // clipped at the top-left
		geom.R(40, 30, 80, 90),   // clipped at the bottom-right
		geom.R(-10, 5, 100, 6),   // one row, wider than the image
		geom.R(60, 60, 70, 70),   // entirely outside
		geom.R(10, 10, 10, 20),   // empty
		geom.R(12, 9, 4, 3),      // inverted
		geom.R(-100, -100, 0, 0), // outside, touching the corner
		geom.R(52, 36, 53, 37),   // the last pixel
	}
	configs := append(append([][3]int{}, hsvConfigs...), [3]int{1, 1, 1}, [3]int{360, 100, 255}, [3]int{maxExactBins + 1, 3, 2})
	for _, im := range []*Image{m, q} {
		for _, r := range regions {
			for _, c := range configs {
				name := fmt.Sprintf("%dx%d %v %v", im.W, im.H, r, c)
				got := NewHSVHistRegion(im, r, c[0], c[1], c[2])
				want := hsvHistRef(im, r, c[0], c[1], c[2])
				wantSamePlane(t, got.H, want.H, name+" H")
				wantSamePlane(t, got.S, want.S, name+" S")
				wantSamePlane(t, got.V, want.V, name+" V")
			}
		}
	}
}
