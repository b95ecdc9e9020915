// Package statediff implements the bug-localization tool of paper §2.3.
// When InstantCheck reports nondeterminism at a checkpoint, the tool
// compares the full memory states of the two differing runs, finds the
// addresses whose values differ, and maps each back to the allocation site
// that produced it and the offset within the allocation block (array index
// or struct field). The programmer then knows both the code region (between
// the last deterministic and the first nondeterministic checkpoint) and the
// part of memory that behaved nondeterministically.
package statediff

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"instantcheck/internal/fpround"
	"instantcheck/internal/mem"
)

// Difference is one word whose value differs between the two states.
type Difference struct {
	// Addr is the differing word's address.
	Addr uint64
	// Site is the allocation site of the block containing Addr ("?" when
	// the word belongs to no block in either snapshot).
	Site string
	// Seq is the per-site allocation sequence number of the block.
	Seq int
	// Offset is the word offset of Addr within its block.
	Offset int
	// Kind is the block's element kind.
	Kind mem.Kind
	// A and B are the two observed raw values.
	A uint64
	// B is the word value in the second state.
	B uint64
	// OnlyIn is "" when the word is live in both states, "A" or "B" when
	// it is live in just one (footprint divergence).
	OnlyIn string
}

// Format renders the difference the way the paper's tool reports it:
// allocation site plus offset, then the values.
func (d Difference) Format() string {
	loc := fmt.Sprintf("%s#%d+%d", d.Site, d.Seq, d.Offset)
	switch {
	case d.OnlyIn != "":
		return fmt.Sprintf("%#012x  %-28s only in state %s", d.Addr, loc, d.OnlyIn)
	case d.Kind == mem.KindFloat:
		return fmt.Sprintf("%#012x  %-28s %v != %v", d.Addr, loc,
			math.Float64frombits(d.A), math.Float64frombits(d.B))
	default:
		return fmt.Sprintf("%#012x  %-28s %#x != %#x", d.Addr, loc, d.A, d.B)
	}
}

// SiteSummary aggregates differences per allocation site — the first thing
// a programmer scans to see which structure went nondeterministic.
type SiteSummary struct {
	// Site is the allocation-site label.
	Site string
	// Words is the number of differing words attributed to the site.
	Words int
	// Offsets lists the distinct differing word offsets (sorted), so field
	// patterns ("always offset 3") are visible at a glance.
	Offsets []int
}

// Diff compares two snapshots and returns the differing words in address
// order. Snapshots store their words as sorted parallel slices, so the
// comparison is a single linear merge walk — no set construction or sort.
// Words of float blocks compare under round, the policy the State Hash
// rounded them with (RoundBits), so a float that differs only below the
// rounding granularity, and so left the hash unchanged, is not listed. The
// zero Policy compares raw bits.
func Diff(a, b *mem.Snapshot, round fpround.Policy) []Difference {
	var out []Difference
	emit := func(addr, va, vb uint64, onlyIn string) {
		d := Difference{Addr: addr, A: va, B: vb, OnlyIn: onlyIn, Site: "?"}
		blk := a.BlockAt(addr)
		if blk == nil {
			blk = b.BlockAt(addr)
		}
		if blk != nil {
			d.Site = blk.Site
			d.Seq = blk.Seq
			d.Offset = int((addr - blk.Base) / mem.WordSize)
			d.Kind = blk.Kind
		}
		out = append(out, d)
	}
	// hashEqual reports whether two values of the word at addr, live in
	// both states, hash alike.
	hashEqual := func(addr, va, vb uint64) bool {
		if va == vb {
			return true
		}
		if !round.Enabled() {
			return false
		}
		blk := a.BlockAt(addr)
		return blk != nil && blk.Kind == mem.KindFloat && round.RoundBits(va) == round.RoundBits(vb)
	}
	i, j := 0, 0
	for i < len(a.Addrs) && j < len(b.Addrs) {
		switch {
		case a.Addrs[i] < b.Addrs[j]:
			emit(a.Addrs[i], a.Vals[i], 0, "A")
			i++
		case a.Addrs[i] > b.Addrs[j]:
			emit(b.Addrs[j], 0, b.Vals[j], "B")
			j++
		default:
			if !hashEqual(a.Addrs[i], a.Vals[i], b.Vals[j]) {
				emit(a.Addrs[i], a.Vals[i], b.Vals[j], "")
			}
			i, j = i+1, j+1
		}
	}
	for ; i < len(a.Addrs); i++ {
		emit(a.Addrs[i], a.Vals[i], 0, "A")
	}
	for ; j < len(b.Addrs); j++ {
		emit(b.Addrs[j], 0, b.Vals[j], "B")
	}
	return out
}

// Summarize groups differences by allocation site, largest first.
func Summarize(diffs []Difference) []SiteSummary {
	type agg struct {
		words   int
		offsets map[int]bool
	}
	bySite := make(map[string]*agg)
	var order []string
	for _, d := range diffs {
		key := fmt.Sprintf("%s#%d", d.Site, d.Seq)
		a := bySite[key]
		if a == nil {
			a = &agg{offsets: make(map[int]bool)}
			bySite[key] = a
			order = append(order, key)
		}
		a.words++
		a.offsets[d.Offset] = true
	}
	out := make([]SiteSummary, 0, len(order))
	for _, key := range order {
		a := bySite[key]
		offs := make([]int, 0, len(a.offsets))
		for o := range a.offsets {
			offs = append(offs, o)
		}
		sort.Ints(offs)
		out = append(out, SiteSummary{Site: key, Words: a.words, Offsets: offs})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Words > out[j].Words })
	return out
}

// Render produces the tool's human-readable report: up to maxLines per-site
// summaries, largest first, then up to maxLines individual differences.
// maxLines <= 0 lists every site and no individual difference.
func Render(diffs []Difference, maxLines int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d differing words\n", len(diffs))
	sites := Summarize(diffs)
	shownSites := len(sites)
	if maxLines > 0 && shownSites > maxLines {
		shownSites = maxLines
	}
	for _, s := range sites[:shownSites] {
		offs := make([]string, 0, len(s.Offsets))
		for _, o := range s.Offsets {
			offs = append(offs, fmt.Sprint(o))
		}
		const maxOffs = 12
		shown := offs
		suffix := ""
		if len(shown) > maxOffs {
			shown = shown[:maxOffs]
			suffix = ",…"
		}
		fmt.Fprintf(&sb, "  site %-28s %6d words at offsets [%s%s]\n",
			s.Site, s.Words, strings.Join(shown, ","), suffix)
	}
	if len(sites) > shownSites {
		fmt.Fprintf(&sb, "  … %d more sites\n", len(sites)-shownSites)
	}
	if maxLines > 0 {
		n := len(diffs)
		if n > maxLines {
			n = maxLines
		}
		for _, d := range diffs[:n] {
			sb.WriteString("  " + d.Format() + "\n")
		}
		if len(diffs) > n {
			fmt.Fprintf(&sb, "  … %d more\n", len(diffs)-n)
		}
	}
	return sb.String()
}
