// Package export converts a reconstructed capture (analyze.Analysis) into
// the formats modern profiling consumers expect, and serves live capture
// status over HTTP:
//
//   - MarshalPprof / WritePprof emit a pprof-compatible protobuf profile
//     (hand-rolled encoding, no dependencies) whose samples carry the
//     reconstructed call stacks with per-stack call counts and nanosecond
//     self times, so `go tool pprof` renders the simulated kernel exactly
//     as it renders a Go program: flat = the paper's net column,
//     cumulative = the paper's elapsed column.
//   - WriteChromeTrace emits the nested frames as Chrome trace_event
//     duration events — viewable in Perfetto or chrome://tracing — with
//     per-process tracks split at the context switcher and one instant
//     event per drain-segment boundary (loss boundaries marked).
//   - StatusServer exposes capture progress (fill level, drained
//     segments, dropped strobes, sweep worker progress) as JSON plus a
//     minimal HTML view, fed by the progress hooks on core.Session and
//     sweep.Config.
//
// The trace exporter needs a full reconstruction (Session.Analyze or
// analyze.Reconstruct): the lean streaming path discards the invocation
// trees its duration events are built from. The pprof profile needs no
// retained trace: a PprofFold passed as the reconstruction's root hook
// (analyze.ReconstructOptions.OnRoot) folds each invocation tree as it
// closes, and MarshalPprof is the same fold run over a retained trace.
package export

import (
	"compress/gzip"
	"fmt"
	"io"

	"kprof/internal/analyze"
)

// pprof profile.proto field numbers. The schema is the stable public one
// consumed by `go tool pprof` (google/pprof/proto/profile.proto).
const (
	// Profile
	profSampleType    = 1
	profSample        = 2
	profLocation      = 4
	profFunction      = 5
	profStringTable   = 6
	profTimeNanos     = 9
	profDurationNanos = 10
	profPeriodType    = 11
	profPeriod        = 12
	profComment       = 13

	// ValueType
	vtType = 1
	vtUnit = 2

	// Sample
	sampleLocationID = 1
	sampleValue      = 2

	// Location
	locID   = 1
	locLine = 4

	// Line
	lineFunctionID = 1

	// Function
	fnID         = 1
	fnName       = 2
	fnSystemName = 3
)

// PprofOptions tunes the pprof export.
type PprofOptions struct {
	// PeriodNS is the sampling period recorded on the profile, in
	// nanoseconds; 0 means 1000 — the prototype card's 1 µs counter
	// resolution.
	PeriodNS int64
}

// pprofSample is one unique call stack's accumulated values.
type pprofSample struct {
	locs  []uint64 // leaf first, as the schema requires
	calls int64
	ns    int64
}

// stackNode is one call stack in the builder's trie: its innermost
// location, the stack it extends (-1 for a root), its depth, and the
// index of its sample (-1 until the stack's first complete invocation).
type stackNode struct {
	parent int32
	depth  int32
	loc    uint64
	sample int32
}

// PprofFold accumulates a pprof profile one top-level invocation tree at a
// time, assigning deterministic ids as it walks: functions and locations
// in first-encounter order (1:1, one synthetic location per function),
// samples in first-encounter stack order, strings in insertion order.
// Determinism is what makes the golden byte-for-byte tests possible.
//
// Stacks fold through a trie: a stack is keyed by its parent stack's id
// and its own location id packed into one uint64, so folding an
// invocation is one fixed-width map lookup whatever its depth.
//
// Root is shaped to be the reconstruction's root hook
// (analyze.ReconstructOptions.OnRoot): folded that way, the profile needs
// no retained trace. A fold is not safe for concurrent use; the hook runs
// on whichever goroutine feeds the reconstructor, and Marshal must wait
// for the reconstruction to finish.
type PprofFold struct {
	strings map[string]int64
	strtab  []string
	funcIDs map[string]uint64
	funcs   []string // name per id, in id order (id = index+1)
	stackIx map[uint64]int32
	stacks  []stackNode
	samples []pprofSample
}

// NewPprofFold returns an empty fold.
func NewPprofFold() *PprofFold {
	b := &PprofFold{
		strings: map[string]int64{"": 0},
		strtab:  []string{""},
		funcIDs: map[string]uint64{},
		stackIx: map[uint64]int32{},
	}
	// Pre-intern the type/unit strings so the table layout is stable
	// regardless of function names.
	for _, s := range []string{"calls", "count", "time", "nanoseconds"} {
		b.str(s)
	}
	return b
}

func (b *PprofFold) str(s string) int64 {
	if ix, ok := b.strings[s]; ok {
		return ix
	}
	ix := int64(len(b.strtab))
	b.strings[s] = ix
	b.strtab = append(b.strtab, s)
	return ix
}

func (b *PprofFold) loc(name string) uint64 {
	if id, ok := b.funcIDs[name]; ok {
		return id
	}
	id := uint64(len(b.funcs) + 1)
	b.funcIDs[name] = id
	b.funcs = append(b.funcs, name)
	b.str(name)
	return id
}

// stack returns the id of the stack that extends parent (-1: none) by
// loc, adding it to the trie on first sight. Both halves of the key fit
// in 32 bits: there is one location per function and one stack per trie
// node.
func (b *PprofFold) stack(parent int32, loc uint64) int32 {
	key := uint64(uint32(parent))<<32 | loc
	if id, ok := b.stackIx[key]; ok {
		return id
	}
	depth := int32(1)
	if parent >= 0 {
		depth += b.stacks[parent].depth
	}
	id := int32(len(b.stacks))
	b.stackIx[key] = id
	b.stacks = append(b.stacks, stackNode{parent: parent, depth: depth, loc: loc, sample: -1})
	return id
}

// add folds one complete invocation into its stack's sample, creating the
// sample — leaf-first locations read off the trie — the first time.
func (b *PprofFold) add(id int32, ns int64) {
	st := &b.stacks[id]
	if st.sample < 0 {
		locs := make([]uint64, 0, st.depth)
		for s := id; s >= 0; s = b.stacks[s].parent {
			locs = append(locs, b.stacks[s].loc)
		}
		st.sample = int32(len(b.samples))
		b.samples = append(b.samples, pprofSample{locs: locs})
	}
	smp := &b.samples[st.sample]
	smp.calls++
	smp.ns += ns
}

// Root folds the invocation tree rooted at n, a closed top-level frame.
func (b *PprofFold) Root(n *analyze.Node) { b.walk(-1, n) }

// walk adds every complete invocation of the tree rooted at n, whose
// caller's stack is parent (-1 for a root). Incomplete frames (force-closed
// or still open) have unknowable self time and contribute no sample of
// their own, exactly as they are excluded from the summary's timed
// statistics — but their name still appears in the stacks of their
// complete descendants.
func (b *PprofFold) walk(parent int32, n *analyze.Node) {
	id := b.stack(parent, b.loc(n.Name))
	if n.Complete {
		ns := int64(n.Net())
		if ns < 0 {
			ns = 0
		}
		b.add(id, ns)
	}
	for _, c := range n.Children {
		b.walk(id, c)
	}
}

// MarshalPprof encodes the analysis as an uncompressed pprof protobuf
// profile. Sample values are [calls/count, time/nanoseconds]; each sample
// is one unique reconstructed call stack, its time the accumulated net
// (self) time of the invocations with that stack. `go tool pprof -top`
// therefore shows flat = the summary report's net column and cum = its
// elapsed column. The output is deterministic byte for byte.
func MarshalPprof(a *analyze.Analysis, opts PprofOptions) []byte {
	b := NewPprofFold()
	for _, it := range a.Items {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			b.Root(it.Node)
		}
	}
	return b.Marshal(a, opts)
}

// Marshal encodes the folded samples as MarshalPprof does, taking the
// capture's span and decode accounting from a — the Analysis the folded
// reconstruction finished into.
func (b *PprofFold) Marshal(a *analyze.Analysis, opts PprofOptions) []byte {
	period := opts.PeriodNS
	if period == 0 {
		period = 1000
	}
	callsIx, countIx := b.strings["calls"], b.strings["count"]
	timeIx, nanosIx := b.strings["time"], b.strings["nanoseconds"]
	// A capture the hardened decoder had to repair carries its corruption
	// accounting as a profile comment (`go tool pprof` prints it under
	// "Comment:"). Interned before the string table is emitted; clean
	// captures intern nothing, so their bytes are unchanged.
	commentIx := int64(-1)
	if a.Stats.CorruptRecords > 0 {
		commentIx = b.str(fmt.Sprintf("decode: %d corrupt records, %d repaired timestamps, %d resyncs",
			a.Stats.CorruptRecords, a.Stats.RepairedTimestamps, a.Stats.Resyncs))
	}

	var p protoBuf
	vt := func(typ, unit int64) []byte {
		var v protoBuf
		v.int64Field(vtType, typ)
		v.int64Field(vtUnit, unit)
		return v.b
	}
	p.bytesField(profSampleType, vt(callsIx, countIx))
	p.bytesField(profSampleType, vt(timeIx, nanosIx))
	for _, smp := range b.samples {
		var s protoBuf
		s.packedUint64(sampleLocationID, smp.locs)
		s.packedInt64(sampleValue, []int64{smp.calls, smp.ns})
		p.bytesField(profSample, s.b)
	}
	for i := range b.funcs {
		id := uint64(i + 1)
		var line protoBuf
		line.uint64Field(lineFunctionID, id)
		var loc protoBuf
		loc.uint64Field(locID, id)
		loc.bytesField(locLine, line.b)
		p.bytesField(profLocation, loc.b)
	}
	for i, name := range b.funcs {
		nameIx := b.strings[name]
		var fn protoBuf
		fn.uint64Field(fnID, uint64(i+1))
		fn.int64Field(fnName, nameIx)
		fn.int64Field(fnSystemName, nameIx)
		p.bytesField(profFunction, fn.b)
	}
	for _, s := range b.strtab {
		p.bytesField(profStringTable, []byte(s))
	}
	// time_nanos stays zero: the capture's timeline is virtual, and a wall
	// timestamp would break byte-identical golden output.
	p.int64Field(profTimeNanos, 0)
	p.int64Field(profDurationNanos, int64(a.Elapsed()))
	p.bytesField(profPeriodType, vt(timeIx, nanosIx))
	p.int64Field(profPeriod, period)
	if commentIx >= 0 {
		p.int64Field(profComment, commentIx)
	}
	return p.b
}

// WritePprof writes the gzipped pprof profile — the on-disk form
// `go tool pprof` expects.
func WritePprof(w io.Writer, a *analyze.Analysis, opts PprofOptions) error {
	return writeGzip(w, MarshalPprof(a, opts))
}

// Write writes the folded profile gzipped, as WritePprof does.
func (b *PprofFold) Write(w io.Writer, a *analyze.Analysis, opts PprofOptions) error {
	return writeGzip(w, b.Marshal(a, opts))
}

func writeGzip(w io.Writer, p []byte) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(p); err != nil {
		return err
	}
	return zw.Close()
}
