package obs

// Distributed trace identity. A TraceContext names one end-to-end
// request — a 128-bit trace id minted at the first span (usually the
// fleet client), plus the parent span id and the hop count of the edge
// being crossed. It travels over the HTTP plane in the X-Pf-Trace
// header and over the wire plane in every frame's trace block;
// every replica that receives one stamps its server span with the
// inbound identity so /fleettracez can stitch the per-replica rings
// back into one tree.
//
// Hop semantics: the span that mints a trace sits at hop 0. Spans
// created in the same process under a parent share its hop; crossing a
// process boundary (HTTP request, wire frame) increments it. So hop
// counts the number of control transfers, not the number of spans.

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a TraceContext across the HTTP plane, formatted
// by TraceContext.String and parsed by ParseTraceHeader.
const TraceHeader = "X-Pf-Trace"

// TraceContext is the propagated trace identity.
type TraceContext struct {
	Hi, Lo uint64 // 128-bit trace id; zero means "no trace"
	Parent uint64 // span id of the sender's span, 0 at the root
	Hop    uint8  // control transfers taken so far
}

// Valid reports whether tc names a trace at all.
func (tc TraceContext) Valid() bool { return tc.Hi|tc.Lo != 0 }

// TraceID renders the 128-bit trace id as 32 hex digits.
func (tc TraceContext) TraceID() string {
	return fmt.Sprintf("%016x%016x", tc.Hi, tc.Lo)
}

// String renders the header form: 32-hex trace id, 16-hex parent span
// id, 2-hex hop, dash-separated.
func (tc TraceContext) String() string {
	return fmt.Sprintf("%016x%016x-%016x-%02x", tc.Hi, tc.Lo, tc.Parent, tc.Hop)
}

// ParseTraceHeader decodes the String form. Absent or malformed input
// returns the zero (invalid) context: a bad header degrades to an
// untraced request, it never fails one.
func ParseTraceHeader(s string) TraceContext {
	if len(s) != 32+1+16+1+2 || s[32] != '-' || s[49] != '-' {
		return TraceContext{}
	}
	var tc TraceContext
	var ok bool
	if tc.Hi, ok = parseHex(s[:16]); !ok {
		return TraceContext{}
	}
	if tc.Lo, ok = parseHex(s[16:32]); !ok {
		return TraceContext{}
	}
	if tc.Parent, ok = parseHex(s[33:49]); !ok {
		return TraceContext{}
	}
	h, ok := parseHex(s[50:52])
	if !ok {
		return TraceContext{}
	}
	tc.Hop = uint8(h)
	return tc
}

// parseHex decodes fixed-width lowercase/uppercase hex without the
// strconv error allocation on the hot header path.
func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// Per-process id source: trace ids need only be unique with high
// probability across the fleet, so a seeded PRNG behind a mutex is
// plenty — and span ids come from an atomic counter striding from a
// random base, keeping the per-request cost to one atomic add.
var traceRng = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(rngSeed()))}

func rngSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	return time.Now().UnixNano()
}

func randU64() uint64 {
	traceRng.mu.Lock()
	v := traceRng.r.Uint64()
	traceRng.mu.Unlock()
	return v
}

var spanIDCtr = func() *atomic.Uint64 {
	var a atomic.Uint64
	a.Store(randU64())
	return &a
}()

// NewTrace mints a fresh root trace context (hop 0, no parent).
func NewTrace() TraceContext {
	tc := TraceContext{Hi: randU64(), Lo: randU64()}
	if !tc.Valid() {
		tc.Lo = 1
	}
	return tc
}

// NewSpanID returns a process-unique nonzero span id: a golden-ratio
// stride from a random per-process base, so concurrent spans pay one
// atomic add instead of a PRNG lock.
func NewSpanID() uint64 {
	for {
		if v := spanIDCtr.Add(0x9e3779b97f4a7c15); v != 0 {
			return v
		}
	}
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace context for the next outbound hop:
// the HTTP client stamps it into X-Pf-Trace, the wire client into the
// frame trace block.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the attached trace context, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}
