package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"planarflow/internal/obs"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeFrame seed corpus")

// fuzzSeeds are the interesting frame shapes the fuzzer starts from: a
// valid untraced request, a valid response, every rejection class
// (truncations at both depths, flipped payload and CRC bytes, foreign
// magic, future version, unknown kind, oversized length prefix), plus
// the trace-carrying shapes (valid, truncated inside the trace block,
// trace byte flipped under the CRC).
func fuzzSeeds(t testing.TB) map[string][]byte {
	valid, err := AppendFrame(nil, uint8(OpQueryB), 42, obs.TraceContext{}, []byte("\x01\x00\x00\x00g\x04\x00\x00\x00dist"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := AppendFrame(nil, respBit|uint8(StatusOK), 42, obs.TraceContext{}, []byte{0x07})
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.TraceContext{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210, Parent: 0x1122334455667788, Hop: 2}
	traced, err := AppendFrame(nil, uint8(OpQueryB), 43, tc, []byte{0x01, 0x02, 0x03})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(i int, x byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= x
		return b
	}
	mutTraced := func(i int, x byte) []byte {
		b := append([]byte(nil), traced...)
		b[i] ^= x
		return b
	}
	oversize := append([]byte(nil), valid...)
	oversize[12], oversize[13], oversize[14], oversize[15] = 0xff, 0xff, 0xff, 0xff
	return map[string][]byte{
		"valid-query":      valid,
		"valid-response":   resp,
		"empty":            {},
		"truncated-header": valid[:HeaderLen/2],
		"truncated-body":   valid[:len(valid)-3],
		"bad-magic":        mut(0, 0xff),
		"future-version":   mut(2, 0x07),
		"bad-kind":         mut(3, 0x55),
		"flipped-payload":  mut(HeaderLen+traceLen+2, 0x10),
		"flipped-crc":      mut(len(valid)-1, 0x01),
		"oversized-length": oversize,
		"two-frames":       append(append([]byte(nil), valid...), resp...),
		"traced-query":     traced,
		"traced-truncated": traced[:HeaderLen+traceLen/2],
		"traced-flipped":   mutTraced(HeaderLen+4, 0x20),
	}
}

// TestWriteSeedCorpus (with -update-corpus) materializes the seeds as
// committed corpus files under testdata/fuzz/FuzzDecodeFrame so the
// regular `go test` run replays them and CI fuzzing starts warm.
func TestWriteSeedCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := fuzzSeeds(t)
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
}

// FuzzDecodeFrame holds the frame decoder to its contract: any byte
// string either decodes to a frame that re-encodes byte-identically, or
// fails with exactly one typed sentinel — never a panic — and the
// decoder touches nothing beyond the bytes in hand (the declared length
// is validated against the remaining input before the payload is
// viewed, mirroring the snapshot codec's discipline).
func FuzzDecodeFrame(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrBadKind) && !errors.Is(err, ErrOversize) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < HeaderLen+traceLen+crcLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(frame.Payload) > MaxPayload {
			t.Fatalf("payload %d exceeds cap", len(frame.Payload))
		}
		// decode∘encode is the identity on the consumed prefix.
		re, err := AppendFrame(nil, frame.Kind, frame.ID, frame.Trace, frame.Payload)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode diverged from input prefix")
		}
	})
}
