package experiment

import (
	"fmt"

	"tagprefetch/internal/memsys"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/stats"
)

// ProfileBench runs one benchmark without prefetching and returns the
// Section 3 locality summary of its measured-window L1 miss stream.
func ProfileBench(bench string, o Options) (profiler.Summary, error) {
	o = o.withDefaults()
	p := profiler.New(memsys.DefaultConfig().L1D, 3)
	if err := (MissTap{Warmup: o.Warmup, Instructions: o.Instructions, Seed: o.Seed}).Run(bench, p.Observe); err != nil {
		return profiler.Summary{}, err
	}
	return p.Summarize(), nil
}

// ProfileAll profiles every benchmark in o.Benches. The result feeds all of
// Figures 2-7 and 15 from a single simulation pass per benchmark; the
// passes are independent and fan out across the runner's worker pool.
func ProfileAll(o Options) map[string]profiler.Summary {
	o = o.withDefaults()
	summaries := make([]profiler.Summary, len(o.Benches))
	o.Runner.ForEach(len(o.Benches), func(i int) {
		s, err := ProfileBench(o.Benches[i], o)
		if err != nil {
			panic(err)
		}
		summaries[i] = s
	})
	out := make(map[string]profiler.Summary, len(o.Benches))
	for i, b := range o.Benches {
		out[b] = summaries[i]
	}
	return out
}

// Fig02TagStats reproduces Figure 2: unique tags in the L1 miss stream and
// the mean number of times each tag re-appears.
func Fig02TagStats(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 2: unique tags and tag recurrence in the L1D miss stream",
		"bench", "misses", "unique tags", "mean recurrences/tag")
	for _, b := range o.Benches {
		s := prof[b]
		t.AddRow(b, fmt.Sprintf("%d", s.Misses), fmt.Sprintf("%d", s.UniqueTags),
			fmt.Sprintf("%.1f", s.TagRecurrence))
	}
	return t
}

// Fig03AddrStats reproduces Figure 3: unique block addresses and their
// recurrence (2-3 orders of magnitude more addresses than tags).
func Fig03AddrStats(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 3: unique addresses and address recurrence in the L1D miss stream",
		"bench", "unique addrs", "mean recurrences/addr", "addrs / tags")
	for _, b := range o.Benches {
		s := prof[b]
		ratio := stats.Ratio(float64(s.UniqueAddrs), float64(s.UniqueTags))
		t.AddRow(b, fmt.Sprintf("%d", s.UniqueAddrs),
			fmt.Sprintf("%.1f", s.AddrRecurrence), fmt.Sprintf("%.1f", ratio))
	}
	return t
}

// Fig04TagSpread reproduces Figure 4: the across-set vs within-set split of
// tag recurrences (mean sets per tag, mean appearances per (tag,set)).
func Fig04TagSpread(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 4: sets touched per tag and per-set tag recurrence",
		"bench", "mean sets/tag", "mean recurrences/(tag,set)")
	for _, b := range o.Benches {
		s := prof[b]
		t.AddRow(b, fmt.Sprintf("%.1f", s.SetsPerTag), fmt.Sprintf("%.1f", s.TagPerSetRecur))
	}
	return t
}

// Fig05SeqRatio reproduces Figure 5: observed unique three-tag sequences as
// a percentage of the uniqueTags^3 upper limit.
func Fig05SeqRatio(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 5: observed 3-tag sequences / possible 3-tag sequences",
		"bench", "unique seqs", "upper limit", "ratio")
	for _, b := range o.Benches {
		s := prof[b]
		limit := float64(s.UniqueTags) * float64(s.UniqueTags) * float64(s.UniqueTags)
		t.AddRow(b, fmt.Sprintf("%d", s.UniqueSeqs), fmt.Sprintf("%.0f", limit),
			stats.Percent(s.SeqRatio))
	}
	return t
}

// Fig06SeqStats reproduces Figure 6: unique three-tag sequences and the
// mean number of times each sequence re-appears.
func Fig06SeqStats(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 6: unique 3-tag sequences and sequence recurrence",
		"bench", "windows", "unique seqs", "mean recurrences/seq")
	for _, b := range o.Benches {
		s := prof[b]
		t.AddRow(b, fmt.Sprintf("%d", s.SeqWindows), fmt.Sprintf("%d", s.UniqueSeqs),
			fmt.Sprintf("%.1f", s.SeqRecurrence))
	}
	return t
}

// Fig07SeqSpread reproduces Figure 7: mean sets per sequence and per-set
// sequence recurrence — the basis for sharing the PHT across sets.
func Fig07SeqSpread(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 7: sets per 3-tag sequence and per-set sequence recurrence",
		"bench", "mean sets/seq", "mean recurrences/(seq,set)")
	for _, b := range o.Benches {
		s := prof[b]
		t.AddRow(b, fmt.Sprintf("%.1f", s.SetsPerSeq), fmt.Sprintf("%.1f", s.SeqPerSetRecur))
	}
	return t
}

// Fig15Strided reproduces Figure 15: the percentage of strided three-tag
// sequences per benchmark (Section 6).
func Fig15Strided(o Options, prof map[string]profiler.Summary) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable("Figure 15: percentage of strided 3-tag sequences",
		"bench", "strided windows", "strided unique seqs")
	for _, b := range o.Benches {
		s := prof[b]
		t.AddRow(b, stats.Percent(s.StridedFrac), stats.Percent(s.StridedUniqueFrac))
	}
	return t
}
