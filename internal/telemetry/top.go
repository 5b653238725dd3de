package telemetry

import (
	"bytes"
	"fmt"
	"time"
)

// TopOptions tune the RenderTop screen.
type TopOptions struct {
	Rows int // hot-page / hot-group rows to show (default 10)
}

// RenderTop renders a daisy-top screen from a snapshot: headline counters,
// the translation-vs-execution time split, hot pages, and hottest groups.
// It is a pure function of the snapshot (plus the caller-supplied wall
// duration), so golden tests can lock the exact screen down; wall <= 0
// omits the wall-clock column entirely for deterministic output.
func RenderTop(s Snapshot, wall time.Duration, opt TopOptions) string {
	if opt.Rows <= 0 {
		opt.Rows = 10
	}
	get := func(vals []MetricValue, name string) float64 {
		for _, v := range vals {
			if v.Name == name {
				return v.Value
			}
		}
		return 0
	}
	ctr := func(name string) uint64 { return uint64(get(s.Counters, name)) }

	var b bytes.Buffer
	b.WriteString("daisy-top\n")
	if wall > 0 {
		fmt.Fprintf(&b, "wall %.3fs\n", wall.Seconds())
	}

	base := ctr("daisy_base_insts")
	interp := ctr("daisy_interp_insts")
	vliws := ctr("daisy_vliws")
	fmt.Fprintf(&b, "insts: base=%d interp=%d vliws=%d", base, interp, vliws)
	if vliws > 0 {
		fmt.Fprintf(&b, " ilp=%.2f", float64(base)/float64(vliws))
	}
	b.WriteByte('\n')

	transNs := ctr("daisy_translate_ns")
	execNs := ctr("daisy_execute_ns")
	if tot := transNs + execNs; tot > 0 {
		fmt.Fprintf(&b, "time split: translate %.1f%% / execute %.1f%% (%.2fms / %.2fms)\n",
			100*float64(transNs)/float64(tot), 100*float64(execNs)/float64(tot),
			float64(transNs)/1e6, float64(execNs)/1e6)
	}
	fmt.Fprintf(&b, "pages: built=%d castout=%d smc=%d quarantined=%d\n",
		ctr("daisy_pages_built"), ctr("daisy_cast_outs"),
		ctr("daisy_smc_invalidations"), ctr("daisy_quarantines"))
	fmt.Fprintf(&b, "groups: built=%d runs_sampled=%d chain_patches=%d chain_follows=%d exceptions=%d\n",
		ctr("daisy_groups_built"), ctr(MGroupRunsSampled),
		ctr("daisy_chain_patches"), ctr("daisy_chain_follows"), ctr("daisy_exceptions"))

	// Async-pipeline pane: only rendered when the pipeline (or the
	// persistent translation cache) actually saw traffic, so synchronous
	// runs keep the pre-async screen byte-for-byte.
	enq := ctr("daisy_async_enqueues")
	hits, misses := ctr("daisy_txcache_hits"), ctr("daisy_txcache_misses")
	if enq+ctr("daisy_async_stale_dropped")+hits+misses > 0 {
		fmt.Fprintf(&b, "async: enq=%d pub=%d stale=%d full=%d queue=%d inflight=%d\n",
			enq, ctr("daisy_async_publishes"), ctr("daisy_async_stale_dropped"),
			ctr("daisy_async_queue_full"),
			uint64(get(s.Gauges, GAsyncQueue)), uint64(get(s.Gauges, GAsyncInflight)))
		if hits+misses > 0 {
			fmt.Fprintf(&b, "txcache: hits=%d (hot=%d) misses=%d stores=%d hit%%=%.1f\n",
				hits, ctr("daisy_txcache_hot_hits"), misses, ctr("daisy_txcache_stores"),
				100*float64(hits)/float64(hits+misses))
			if misses > 0 {
				fmt.Fprintf(&b, "txcache misses: absent=%d corrupt=%d skew=%d optfp=%d\n",
					ctr("daisy_txcache_miss_absent"), ctr("daisy_txcache_miss_corrupt"),
					ctr("daisy_txcache_miss_version_skew"), ctr("daisy_txcache_miss_options"))
			}
		}
	}

	// Tier pane: only rendered when optimizing retranslation actually did
	// something, so tier-1-only runs keep the previous screen byte-for-byte.
	prom := ctr("daisy_tier2_promotions")
	if prom+ctr("daisy_tier2_dispatches")+ctr("daisy_tier2_profile_insts") > 0 {
		fmt.Fprintf(&b, "tier2: promoted=%d dispatches=%d deopts=%d departures=%d demoted=%d\n",
			prom, ctr("daisy_tier2_dispatches"), ctr("daisy_tier2_deopts"),
			ctr("daisy_tier2_path_departures"), ctr("daisy_tier2_demotions"))
	}

	row := func(title string, hot []HotCount) {
		fmt.Fprintf(&b, "%s (sampled group runs)\n", title)
		if len(hot) == 0 {
			b.WriteString("  (none)\n")
			return
		}
		n := opt.Rows
		if n > len(hot) {
			n = len(hot)
		}
		var total uint64
		for _, h := range hot {
			total += h.Count
		}
		for i := 0; i < n; i++ {
			h := hot[i]
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(h.Count) / float64(total)
			}
			fmt.Fprintf(&b, "  %2d. 0x%08x %8d %5.1f%%\n", i+1, h.Addr, h.Count, pct)
		}
	}
	row("hot pages", s.HotPages)
	row("hot groups", s.HotGroups)

	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "hist %-28s n=%-8d mean=%.3f\n", h.Name, h.Count, h.Mean())
	}
	if s.TraceEvents > 0 {
		fmt.Fprintf(&b, "trace: %d events digest=%s\n", s.TraceEvents, s.TraceDigest)
	}
	return b.String()
}
