package vid

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"verro/internal/img"
)

// oversizedHeader is a 55-byte .vvf whose header claims four 16384×16384
// frames (768 MiB each) while its gzip body inflates to 4 bytes: one kind
// byte and three pixel bytes.
func oversizedHeader(t testing.TB) []byte {
	var buf bytes.Buffer
	buf.WriteString(vvfMagic)
	for _, h := range []any{uint32(maxDim), uint32(maxDim), uint32(4), math.Float64bits(25), uint8(0), uint16(0)} {
		if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write([]byte{frameRaw, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAlloc decodes data and returns the bytes allocated meanwhile.
func decodeAlloc(data []byte) (*Video, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := Decode(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return v, after.TotalAlloc - before.TotalAlloc, err
}

// allocCeiling bounds what decoding n input bytes may allocate. Deflate
// expands at most about 1032:1, so the stream inflates to at most 1032·n
// bytes. Pixel buffers cost at most 3 bytes per inflated byte: the first
// frame's buffer doubles as its bytes arrive (under 2×), and each later
// one is allocated whole only after a frame of that size has arrived (at
// most one frame's worth unfilled). Every frame costs a bounded
// bookkeeping overhead (its image header and slots in the frame lists)
// and consumes at least its one kind byte. The decompressor, the buffered
// reader and the name take a fixed amount.
func allocCeiling(n int) uint64 {
	const (
		inflate  = 1032
		perPixel = 3
		perFrame = 128
		fixed    = 1 << 20
	)
	return uint64(n)*inflate*(perPixel+perFrame) + fixed
}

// TestDecodeAllocationBoundedByInput is the oversized-header regression: a
// header may claim frames of up to 16384×16384 pixels, but decoding must
// allocate in proportion to the bytes actually present, not to the sizes
// the header promises.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	data := oversizedHeader(t)
	if len(data) != 55 {
		t.Fatalf("hostile input is %d bytes, want 55", len(data))
	}
	_, alloc, err := decodeAlloc(data)
	if err == nil {
		t.Fatal("truncated 16384×16384 stream decoded without error")
	}
	if ceil := allocCeiling(len(data)); alloc > ceil {
		t.Fatalf("decoding %d bytes allocated %d bytes, ceiling %d", len(data), alloc, ceil)
	}
	t.Logf("decoding %d bytes allocated %d bytes", len(data), alloc)
}

// FuzzVVF throws arbitrary byte streams at the .vvf decoder. Invariants:
// Decode must return an error — never panic — on malformed input, must
// allocate no more than allocCeiling of the input size whatever the header
// claims, and any stream it accepts must survive a re-encode/decode round
// trip bit-exactly.
//
// Run a longer session with: go test -run=^$ -fuzz=FuzzVVF -fuzztime=60s ./internal/vid/
func FuzzVVF(f *testing.F) {
	seed := func(frames, w, h int, moving bool) []byte {
		v := New("fuzz", w, h, 25)
		v.Moving = moving
		for i := 0; i < frames; i++ {
			fr := img.New(w, h)
			for p := range fr.Pix {
				fr.Pix[p] = uint8(p*31 + i*7)
			}
			if err := v.Append(fr); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(3, 16, 12, true)
	f.Add(valid)
	f.Add(seed(0, 8, 8, false))
	f.Add(seed(1, 1, 1, false))
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0x40
	f.Add(corrupted) // bit flip inside the gzip body
	f.Add([]byte(vvfMagic))
	f.Add([]byte{})
	f.Add(oversizedHeader(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, alloc, err := decodeAlloc(data)
		if ceil := allocCeiling(len(data)); alloc > ceil {
			t.Fatalf("decoding %d bytes allocated %d bytes, ceiling %d", len(data), alloc, ceil)
		}
		if err != nil {
			return // rejected cleanly: that is the contract for garbage input
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, v); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		// FPS compares by bits: fuzzed headers can carry NaN payloads, which
		// Encode preserves exactly but == would reject.
		if back.W != v.W || back.H != v.H || back.Len() != v.Len() ||
			math.Float64bits(back.FPS) != math.Float64bits(v.FPS) ||
			back.Moving != v.Moving || back.Name != v.Name {
			t.Fatalf("round trip changed header: got %v, want %v", back, v)
		}
		for i := range v.Frames {
			if !bytes.Equal(v.Frame(i).Pix, back.Frame(i).Pix) {
				t.Fatalf("round trip changed frame %d", i)
			}
		}
	})
}
