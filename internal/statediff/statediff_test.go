package statediff

import (
	"math"
	"strings"
	"testing"

	"instantcheck/internal/fpround"
	"instantcheck/internal/mem"
)

// snap builds a snapshot from (block, values) specs.
func snap(blocks []*mem.Block, words map[uint64]uint64) *mem.Snapshot {
	return mem.NewSnapshot(blocks, words)
}

func blk(base uint64, words int, site string, seq int, kind mem.Kind) *mem.Block {
	return &mem.Block{Base: base, Words: words, Site: site, Seq: seq, Kind: kind, Live: true}
}

func TestDiffIdentical(t *testing.T) {
	b := []*mem.Block{blk(0x1000, 2, "s", 0, mem.KindWord)}
	w := map[uint64]uint64{0x1000: 1, 0x1008: 2}
	if d := Diff(snap(b, w), snap(b, w), fpround.Policy{}); len(d) != 0 {
		t.Errorf("diffs on identical states: %v", d)
	}
}

func TestDiffAttribution(t *testing.T) {
	blocks := []*mem.Block{
		blk(0x1000, 4, "alloc.go:10", 0, mem.KindWord),
		blk(0x2000, 2, "alloc.go:20", 3, mem.KindFloat),
	}
	a := snap(blocks, map[uint64]uint64{
		0x1000: 1, 0x1008: 2, 0x1010: 3, 0x1018: 4,
		0x2000: math.Float64bits(1.5), 0x2008: math.Float64bits(2.5),
	})
	b := snap(blocks, map[uint64]uint64{
		0x1000: 1, 0x1008: 99, 0x1010: 3, 0x1018: 4,
		0x2000: math.Float64bits(1.5), 0x2008: math.Float64bits(7.5),
	})
	diffs := Diff(a, b, fpround.Policy{})
	if len(diffs) != 2 {
		t.Fatalf("%d diffs", len(diffs))
	}
	d0 := diffs[0]
	if d0.Addr != 0x1008 || d0.Site != "alloc.go:10" || d0.Offset != 1 || d0.A != 2 || d0.B != 99 {
		t.Errorf("d0 = %+v", d0)
	}
	d1 := diffs[1]
	if d1.Site != "alloc.go:20" || d1.Seq != 3 || d1.Offset != 1 || d1.Kind != mem.KindFloat {
		t.Errorf("d1 = %+v", d1)
	}
	// Float rendering shows float values; word rendering shows hex.
	if !strings.Contains(d1.Format(), "2.5 != 7.5") {
		t.Errorf("float format: %s", d1.Format())
	}
	if !strings.Contains(d0.Format(), "0x2 != 0x63") {
		t.Errorf("word format: %s", d0.Format())
	}
}

func TestDiffFootprintDivergence(t *testing.T) {
	shared := blk(0x1000, 1, "s", 0, mem.KindWord)
	onlyA := blk(0x3000, 1, "extra", 1, mem.KindWord)
	a := snap([]*mem.Block{shared, onlyA}, map[uint64]uint64{0x1000: 5, 0x3000: 9})
	b := snap([]*mem.Block{shared}, map[uint64]uint64{0x1000: 5})
	diffs := Diff(a, b, fpround.Policy{})
	if len(diffs) != 1 {
		t.Fatalf("%d diffs", len(diffs))
	}
	if diffs[0].OnlyIn != "A" || diffs[0].Site != "extra" {
		t.Errorf("%+v", diffs[0])
	}
	if !strings.Contains(diffs[0].Format(), "only in state A") {
		t.Errorf("format: %s", diffs[0].Format())
	}
}

func TestDiffUnattributed(t *testing.T) {
	a := snap(nil, map[uint64]uint64{0x5000: 1})
	b := snap(nil, map[uint64]uint64{0x5000: 2})
	diffs := Diff(a, b, fpround.Policy{})
	if len(diffs) != 1 || diffs[0].Site != "?" {
		t.Errorf("%+v", diffs)
	}
}

func TestSummarize(t *testing.T) {
	blocks := []*mem.Block{
		blk(0x1000, 8, "big", 0, mem.KindWord),
		blk(0x2000, 2, "small", 0, mem.KindWord),
	}
	wa := map[uint64]uint64{}
	wb := map[uint64]uint64{}
	for i := 0; i < 8; i++ {
		wa[0x1000+uint64(i)*8] = 1
		wb[0x1000+uint64(i)*8] = 1
	}
	// 3 diffs in big (offsets 1,3,5), 1 in small (offset 0).
	for _, off := range []uint64{1, 3, 5} {
		wb[0x1000+off*8] = 42
	}
	wa[0x2000], wb[0x2000] = 7, 8
	wa[0x2008], wb[0x2008] = 9, 9

	sum := Summarize(Diff(snap(blocks, wa), snap(blocks, wb), fpround.Policy{}))
	if len(sum) != 2 {
		t.Fatalf("%d groups", len(sum))
	}
	if sum[0].Site != "big#0" || sum[0].Words != 3 {
		t.Errorf("first group %+v", sum[0])
	}
	if got := sum[0].Offsets; len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("offsets %v", got)
	}
	if sum[1].Site != "small#0" || sum[1].Words != 1 {
		t.Errorf("second group %+v", sum[1])
	}
}

func TestRender(t *testing.T) {
	blocks := []*mem.Block{blk(0x1000, 2, "site", 0, mem.KindWord)}
	a := snap(blocks, map[uint64]uint64{0x1000: 1, 0x1008: 2})
	b := snap(blocks, map[uint64]uint64{0x1000: 9, 0x1008: 8})
	out := Render(Diff(a, b, fpround.Policy{}), 1)
	if !strings.Contains(out, "2 differing words") {
		t.Error("missing count:", out)
	}
	if !strings.Contains(out, "site site#0") {
		t.Error("missing summary:", out)
	}
	if !strings.Contains(out, "… 1 more") {
		t.Error("missing truncation marker:", out)
	}
	if Render(nil, 5) != "0 differing words\n" {
		t.Error("empty render")
	}
}

// TestRenderCapsSites: a divergence spread over many allocation instances
// (cholesky's free-list nodes) prints at most maxLines site lines, largest
// first, then one line counting the rest.
func TestRenderCapsSites(t *testing.T) {
	var blocks []*mem.Block
	wa, wb := map[uint64]uint64{}, map[uint64]uint64{}
	for i := 0; i < 5; i++ {
		base := uint64(0x1000 * (i + 1))
		blocks = append(blocks, blk(base, 8, "node", i, mem.KindWord))
		for off := 0; off <= i; off++ { // instance i differs in i+1 words
			wa[base+uint64(off)*8], wb[base+uint64(off)*8] = 1, 2
		}
	}
	out := Render(Diff(snap(blocks, wa), snap(blocks, wb), fpround.Policy{}), 2)
	if got := strings.Count(out, "  site "); got != 2 {
		t.Errorf("%d site lines, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "site node#4 ") || !strings.Contains(out, "site node#3 ") {
		t.Errorf("the two largest sites are not the ones shown:\n%s", out)
	}
	if !strings.Contains(out, "  … 3 more sites\n") {
		t.Errorf("missing site truncation line:\n%s", out)
	}
	if got := strings.Count(Render(Diff(snap(blocks, wa), snap(blocks, wb), fpround.Policy{}), 0), "  site "); got != 5 {
		t.Errorf("maxLines 0 lists %d sites, want all 5", got)
	}
}

// TestDiffUnderRounding checks float words compare under the rounding
// policy the hash used: a float that moves only below the granularity is
// not a difference, one that crosses it is, and an integer word with the
// same bits is compared raw.
func TestDiffUnderRounding(t *testing.T) {
	blocks := []*mem.Block{
		blk(0x1000, 2, "floats", 0, mem.KindFloat),
		blk(0x2000, 1, "words", 0, mem.KindWord),
	}
	f := math.Float64bits
	a := snap(blocks, map[uint64]uint64{0x1000: f(0.06053197463026586), 0x1008: f(0.1234), 0x2000: f(0.06053197463026586)})
	b := snap(blocks, map[uint64]uint64{0x1000: f(0.06053197463026587), 0x1008: f(0.1244), 0x2000: f(0.06053197463026587)})
	if got := len(Diff(a, b, fpround.Policy{})); got != 3 {
		t.Errorf("raw bits: %d differing words, want 3", got)
	}
	diffs := Diff(a, b, fpround.Default)
	if len(diffs) != 2 || diffs[0].Addr != 0x1008 || diffs[1].Addr != 0x2000 {
		t.Errorf("under %v: %+v, want the words at 0x1008 and 0x2000", fpround.Default, diffs)
	}
}
