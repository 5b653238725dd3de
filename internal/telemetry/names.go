package telemetry

// Canonical names of the metrics the telemetry layer itself owns: the
// host-clock split, the sampled group-run count, the async queue gauges and
// every histogram. The machine's counters are not listed here: each is named
// once, by the `metric` tag on its vmm.Stats field, and the top screen reads
// them by that name.
const (
	MTranslateNs      = "daisy_translate_ns"       // host clock; zeroed by Canonical
	MExecuteNs        = "daisy_execute_ns"         // host clock; zeroed by Canonical
	MGroupRunsSampled = "daisy_group_runs_sampled" // sampled group runs (a group's entry to its exit)

	GAsyncQueue    = "daisy_async_queue_depth" // gauge: pages waiting in the job channel
	GAsyncInflight = "daisy_async_inflight"    // gauge: pages being translated by workers

	// Histograms.
	HILPPerGroup     = "daisy_ilp_per_group"         // base insts / VLIWs per sampled group run
	HVLIWsPerGroup   = "daisy_vliws_per_group"       // VLIWs executed per sampled group run
	HTransNsPerInst  = "daisy_translate_ns_per_inst" // host clock; zeroed by Canonical
	HChainDepth      = "daisy_chain_depth"           // groups entered since the last dispatch, per sampled group run
	HQuarantineDwell = "daisy_quarantine_dwell"      // base insts a page spent quarantined

	// Per-stage async-pipeline latency histograms (host clock; zeroed by
	// Canonical), one observation per published translation.
	HSpanQueueWaitNs    = "daisy_span_queue_wait_ns"    // enqueue -> worker pickup
	HSpanTranslateNs    = "daisy_span_translate_ns"     // worker pickup -> result ready
	HSpanPublishDelayNs = "daisy_span_publish_delay_ns" // result ready -> boundary publish
)

// Default histogram bounds (last bucket +Inf is implicit).
var (
	BoundsILP        = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 6, 8}
	BoundsVLIWs      = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	BoundsNsPerInst  = []float64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000}
	BoundsChainDepth = []float64{1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384}
	BoundsDwell      = []float64{1000, 3000, 10000, 30000, 100000, 300000, 1e6, 3e6}
	BoundsSpanNs     = []float64{1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8}
)
