package vid

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
)

// The .vvf container: a small header followed by gzip-compressed frame
// payloads. The first frame is stored raw; every subsequent frame is stored
// as the byte-wise delta from its predecessor, which compresses extremely
// well for surveillance footage where consecutive frames are near-identical
// — the same temporal redundancy the paper's key-frame extraction exploits.
//
// The codec itself lives in stream.go as a windowed Writer/Reader pair;
// the whole-video Encode/Decode entry points here are wrappers over them,
// so the batch and streaming paths share one implementation and their
// byte streams are identical by construction.

const (
	vvfMagic   = "VVF1"
	maxFrames  = 1 << 20
	maxDim     = 1 << 14
	frameRaw   = 0
	frameDelta = 1

	// payloadChunk is the first buffer size for a frame payload the stream
	// has not yet shown it holds; maxPresized caps the frame list a Next
	// call allocates before any frame has arrived.
	payloadChunk = 64 << 10
	maxPresized  = 256
)

// ErrFormat reports a malformed .vvf stream.
var ErrFormat = errors.New("vid: invalid vvf stream")

// newVVFCompressor wraps w in the container's compressor (gzip at
// BestSpeed). Both the batch and windowed writers go through here so the
// compressed stream never depends on which path produced it.
func newVVFCompressor(w io.Writer) (io.WriteCloser, error) {
	return gzip.NewWriterLevel(w, gzip.BestSpeed)
}

// newVVFDecompressor opens the container's decompressor over r.
func newVVFDecompressor(r io.Reader) (io.ReadCloser, error) {
	return gzip.NewReader(r)
}

// Encode writes v to w in .vvf format and returns the number of compressed
// payload bytes written (the "bandwidth" of Table 3).
func Encode(w io.Writer, v *Video) (int64, error) {
	sw, err := NewWriter(w, MetaOf(v))
	if err != nil {
		return 0, err
	}
	if err := sw.Append(v.Frames); err != nil {
		return 0, err
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	return sw.Written(), nil
}

// Decode reads a .vvf stream back into a Video.
func Decode(r io.Reader) (*Video, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	meta := sr.Meta()
	v := New(meta.Name, meta.W, meta.H, meta.FPS)
	v.Moving = meta.Moving
	for {
		frames, _, err := sr.Next(0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		v.Frames = append(v.Frames, frames...)
	}
	return v, nil
}

// WriteFile saves v to path in .vvf format, creating parent directories, and
// returns the compressed size in bytes.
func WriteFile(path string, v *Video) (int64, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := Encode(f, v)
	if err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// ReadFile loads a .vvf video from disk.
func ReadFile(path string) (*Video, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// EncodedSize returns the compressed .vvf size of v without keeping the
// stream — the Table 3 "bandwidth" figure.
func EncodedSize(v *Video) (int64, error) {
	return Encode(io.Discard, v)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
