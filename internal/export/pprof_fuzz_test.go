package export

import (
	"bytes"
	"sort"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/hw"
)

// foldTags lists the distinct tags of a capture, the alphabet the fuzz
// input's tag bytes index.
func foldTags(segs []hw.Capture) []uint16 {
	seen := map[uint16]bool{}
	var out []uint16
	for _, seg := range segs {
		for _, r := range seg.Records {
			if !seen[r.Tag] {
				seen[r.Tag] = true
				out = append(out, r.Tag)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzPprofFold feeds hostile record streams — seeded from a genuine
// proday drain with calls inserted at every resume, then reordered,
// truncated, restamped and cut into lossy segments by the fuzzer — to
// the streamed pprof fold and to MarshalPprof over a retained analysis of
// the same records. The two profiles must be byte-identical, and the root
// hook must see exactly the retained trace's top-level exits.
//
// Each record is four bytes: an index into the seed capture's tag
// alphabet (values past its end select an unresolvable tag) and a 24-bit
// little-endian stamp.
func FuzzPprofFold(f *testing.F) {
	s := prodaySession(f, 42, core.ProfileConfig{})
	segs := withResumeCalls(f, []hw.Capture{s.Capture()}, s.Tags)
	alphabet := foldTags(segs)
	ix := map[uint16]byte{}
	for i, tag := range alphabet {
		ix[tag] = byte(i)
	}
	recs := segs[0].Records
	if len(recs) > 600 {
		recs = recs[:600]
	}
	var raw []byte
	for _, r := range recs {
		raw = append(raw, ix[r.Tag], byte(r.Stamp), byte(r.Stamp>>8), byte(r.Stamp>>16))
	}
	f.Add(raw, uint8(0))
	f.Add(raw, uint8(3)) // lossy boundaries through open frames
	f.Add(raw[:len(raw)/2+2], uint8(4))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		var recs []hw.Record
		for i := 0; i+4 <= len(data); i += 4 {
			tag := uint16(0xFFFE)
			if int(data[i]) < len(alphabet) {
				tag = alphabet[data[i]]
			}
			stamp := uint32(data[i+1]) | uint32(data[i+2])<<8 | uint32(data[i+3])<<16
			recs = append(recs, hw.Record{Tag: tag, Stamp: stamp & hw.TimerMask})
		}
		// split carves the stream into segments; odd splits make every
		// boundary lossy.
		segLen := len(recs) + 1
		if split > 0 {
			segLen = len(recs)/int(split%8+2) + 1
		}
		var segs []hw.Capture
		for i := 0; i < len(recs); i += segLen {
			seg := hw.Capture{Records: recs[i:min(i+segLen, len(recs))]}
			if i+segLen < len(recs) {
				seg.Dropped = uint64(split % 2)
			}
			segs = append(segs, seg)
		}
		full := analyze.Stitch(segs, s.Tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
		fold, lean, calls := streamFold(segs, s.Tags)
		if want := depthZeroExits(full); calls != want {
			t.Fatalf("root hook called %d times, trace has %d top-level exits", calls, want)
		}
		if !bytes.Equal(fold.Marshal(lean, PprofOptions{}), MarshalPprof(full, PprofOptions{})) {
			t.Fatal("streamed fold's bytes differ from MarshalPprof over the retained trace")
		}
	})
}
