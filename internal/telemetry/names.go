package telemetry

// Canonical metric names. The VMM probe registers these; the top screen
// and the docs refer to them by name, so they live in one place.
const (
	// Counters mirroring the machine's deterministic progress.
	MBaseInsts   = "daisy_base_insts"
	MInterpInsts = "daisy_interp_insts"
	MVLIWs       = "daisy_vliws"
	MCycles      = "daisy_cycles"

	// Translation activity.
	MPagesBuilt   = "daisy_pages_built"
	MGroupsBuilt  = "daisy_groups_built"
	MEntriesBuilt = "daisy_entries_built"
	MTranslateNs  = "daisy_translate_ns" // host clock; zeroed by Canonical
	MExecuteNs    = "daisy_execute_ns"   // host clock; zeroed by Canonical

	// Dispatch and chaining.
	MDispatchesSampled = "daisy_dispatches_sampled"
	MChainPatches      = "daisy_chain_patches"
	MChainFollows      = "daisy_chain_follows"

	// Robustness machinery.
	MExceptions         = "daisy_exceptions"
	MSMCInvalidations   = "daisy_smc_invalidations"
	MCastOuts           = "daisy_cast_outs"
	MQuarantines        = "daisy_quarantines"
	MQuarantineReleases = "daisy_quarantine_releases"
	MTranslatorPanics   = "daisy_translator_panics" // panics recovered in the translation path

	// Asynchronous translation pipeline.
	MAsyncEnqueues  = "daisy_async_enqueues"
	MAsyncPublishes = "daisy_async_publishes"
	MAsyncQueueFull = "daisy_async_queue_full"
	MAsyncStale     = "daisy_async_stale_dropped"
	GAsyncQueue     = "daisy_async_queue_depth" // gauge: pages waiting in the job channel
	GAsyncInflight  = "daisy_async_inflight"    // gauge: pages being translated by workers

	// Async-pipeline fault tolerance (worker watchdog; see vmm/async.go).
	MAsyncRetries          = "daisy_async_retries"           // failed translations rescheduled with backoff
	MAsyncRetriesExhausted = "daisy_async_retries_exhausted" // retry budget spent; page quarantined
	MAsyncAbandons         = "daisy_async_abandons"          // in-flight jobs abandoned past the deadline
	MAsyncLateDrops        = "daisy_async_late_drops"        // abandoned results that arrived late, dropped
	MAsyncRespawns         = "daisy_async_respawns"          // worker goroutines respawned by the watchdog

	// Optimizing retranslation tier (vmm/tier2.go).
	MTier2Promotions     = "daisy_tier2_promotions"      // pages retranslated at tier-2 effort
	MTier2Publishes      = "daisy_tier2_publishes"       // async tier-2 results installed
	MTier2Dispatches     = "daisy_tier2_dispatches"      // dispatches served by a tier-2 group
	MTier2Deopts         = "daisy_tier2_deopts"          // tier-2 faults deoptimized to tier-1
	MTier2PathDepartures = "daisy_tier2_path_departures" // dispatches that left the tier-2 hot path
	MTier2Demotions      = "daisy_tier2_demotions"       // tier-2 translations retired
	MTier2ProfileInsts   = "daisy_tier2_profile_insts"   // insts interpreted by the promotion profiler

	// Persistent translation cache.
	MCacheHits       = "daisy_txcache_hits"
	MCacheHotHits    = "daisy_txcache_hot_hits" // hits served by the decoded in-memory tier
	MCacheMisses     = "daisy_txcache_misses"
	MCacheStores     = "daisy_txcache_stores"
	MCacheSaveErrors = "daisy_txcache_save_errors" // writes that failed and degraded to bypass

	// Cache miss taxonomy: the four reasons partition MCacheMisses (see
	// txcache.MissReason), so a fleet operator can tell benign cold starts
	// (absent) from damage (corrupt), rollouts (version skew) and
	// configuration drift (options mismatch) at a glance.
	MCacheMissAbsent  = "daisy_txcache_miss_absent"
	MCacheMissCorrupt = "daisy_txcache_miss_corrupt"
	MCacheMissSkew    = "daisy_txcache_miss_version_skew"
	MCacheMissOptions = "daisy_txcache_miss_options"

	// Histograms.
	HILPPerGroup     = "daisy_ilp_per_group"         // base insts / VLIWs per sampled group run
	HVLIWsPerGroup   = "daisy_vliws_per_group"       // VLIWs executed per sampled group run
	HTransNsPerInst  = "daisy_translate_ns_per_inst" // host clock; zeroed by Canonical
	HChainRunLen     = "daisy_chain_run_len"         // groups chained per dispatch without VMM round-trip
	HQuarantineDwell = "daisy_quarantine_dwell"      // base insts a page spent quarantined

	// Per-stage async-pipeline latency histograms (host clock; zeroed by
	// Canonical). Registered only when Options.Spans is on, so span-free
	// snapshots stay byte-identical to the pre-span goldens.
	HSpanQueueWaitNs    = "daisy_span_queue_wait_ns"    // enqueue -> worker pickup
	HSpanTranslateNs    = "daisy_span_translate_ns"     // worker pickup -> result ready
	HSpanPublishDelayNs = "daisy_span_publish_delay_ns" // result ready -> boundary publish
)

// Default histogram bounds (last bucket +Inf is implicit).
var (
	BoundsILP       = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 6, 8}
	BoundsVLIWs     = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	BoundsNsPerInst = []float64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000}
	BoundsChainRun  = []float64{1, 2, 3, 4, 6, 8, 12, 16, 32}
	BoundsDwell     = []float64{1000, 3000, 10000, 30000, 100000, 300000, 1e6, 3e6}
	BoundsSpanNs    = []float64{1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8}
)
