package main

// metricDef names one printed metric and its unit; BENCHMARK.json lists
// the same names, and the self-test holds the two lists equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them for its own unit of work (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"out_bytes", "bytes"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	// Wall-clock figures of the traced run's untraced units: the unit's
	// latency and throughput, and the workload-specific figures.
	{"op_ms", "ms"},
	{"op_ms.p90", "ms"},
	{"op_cpu_ms.p90", "ms"},
	{"ops_per_s", "1/s"},
	{"profile_s", "s"},
	{"record_s", "s"},
	{"replay_s", "s"},
	{"trace_bytes", "bytes"},
	{"jobs_per_s", "1/s"},
	{"job_ms.p50", "ms"},
	{"job_ms.p99", "ms"},
	{"failed_frac", "frac"},
	// Tracing integrity.
	{"trace.coverage", "frac"},
	{"trace.overhead", "frac"},
	// Compiler, instrumenter, interpreter.
	{"mj.compile_ms", "ms"},
	{"instrument.ms", "ms"},
	{"vm.plain_ms", "ms"},
	{"vm.instructions", "count"},
	{"vm.ns_per_instr", "ns"},
	// Profiler core and snapshot memo.
	{"core.self_ms", "ms"},
	{"core.events", "count"},
	{"core.ns_per_event", "ns"},
	{"core.live_mb", "MB"},
	{"snapshot.memo_hits", "count"},
	{"snapshot.memo_misses", "count"},
	{"snapshot.memo_hit_ratio", "frac"},
	// Grouping, classification, fitting, report.
	{"group.ms", "ms"},
	{"group.algorithms", "count"},
	{"classify.ms", "ms"},
	{"fit.ms", "ms"},
	{"report.json_ms", "ms"},
	// Trace format and run store.
	{"trace.encode_ms", "ms"},
	{"trace.records", "count"},
	{"trace.frames", "count"},
	{"trace.checkpoints", "count"},
	{"trace.bytes_per_record", "bytes"},
	{"trace.decode_ms", "ms"},
	{"trace.replay_profile_ms", "ms"},
	{"store.persist_ms", "ms"},
	{"store.replay_overhead_ms", "ms"},
	// Daemon.
	{"service.submit_ms.p50", "ms"},
	{"service.queue_ms.p50", "ms"},
	{"service.queue_ms.p99", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.backends_run_ms.p50", "ms"},
	{"service.deliver_ms.p50", "ms"},
	{"service.ok", "count"},
	{"service.degraded", "count"},
	{"service.failed", "count"},
	{"service.lost", "count"},
	{"service.untyped", "count"},
	{"service.retried_submits", "count"},
	{"service.max_queue_depth", "count"},
	// Allocation and garbage collection.
	{"mj.alloc_mb", "MB"},
	{"vm.alloc_mb", "MB"},
	{"core.alloc_mb", "MB"},
	{"group.alloc_mb", "MB"},
	{"fit.alloc_mb", "MB"},
	{"trace.encode.alloc_mb", "MB"},
	{"trace.decode.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.cpu_frac", "frac"},
}

// layerMetrics derives the per-layer metrics from a traced run's spans
// and counts. Spans a workload never recorded come out as 0.
func layerMetrics(tr *tracer, into map[string]float64) {
	plain := tr.spanMs("vm.plain")
	instrs := tr.countMedian("vm.instructions")
	events := tr.countMedian("core.events")
	hits, misses := tr.countMedian("snapshot.memo_hits"), tr.countMedian("snapshot.memo_misses")
	records := tr.countMedian("trace.records")
	coreSelf := 0.0
	if c := tr.spanMs("core"); c > 0 {
		coreSelf = c - plain
	}
	cycles, gcFrac := tr.gcPerPass()
	for k, v := range map[string]float64{
		"mj.compile_ms":           tr.spanMs("mj.compile"),
		"instrument.ms":           tr.spanMs("instrument"),
		"vm.plain_ms":             plain,
		"vm.instructions":         instrs,
		"vm.ns_per_instr":         ratio(plain*1e6, instrs),
		"core.self_ms":            coreSelf,
		"core.events":             events,
		"core.ns_per_event":       ratio(coreSelf*1e6, events),
		"core.live_mb":            tr.countMedian("core.live_bytes") / 1e6,
		"snapshot.memo_hits":      hits,
		"snapshot.memo_misses":    misses,
		"snapshot.memo_hit_ratio": ratio(hits, hits+misses),
		"group.ms":                tr.spanMs("group"),
		"group.algorithms":        tr.countMedian("group.algorithms"),
		"classify.ms":             tr.spanMs("classify"),
		"fit.ms":                  tr.spanMs("fit"),
		"report.json_ms":          tr.spanMs("report"),
		"trace.encode_ms":         tr.spanMs("trace.encode"),
		"trace.records":           records,
		"trace.frames":            tr.countMedian("trace.frames"),
		"trace.checkpoints":       tr.countMedian("trace.checkpoints"),
		"trace.bytes_per_record":  ratio(tr.countMedian("trace.bytes"), records),
		"trace.decode_ms":         tr.spanMs("trace.decode"),
		"trace.replay_profile_ms": tr.spanMs("trace.replay_profile"),
		"mj.alloc_mb":             tr.allocMB("mj.compile"),
		"vm.alloc_mb":             tr.allocMB("vm.plain"),
		"core.alloc_mb":           tr.allocMB("core"),
		"group.alloc_mb":          tr.allocMB("group"),
		"fit.alloc_mb":            tr.allocMB("fit"),
		"trace.encode.alloc_mb":   tr.allocMB("trace.encode"),
		"trace.decode.alloc_mb":   tr.allocMB("trace.decode"),
		"gc.cycles":               cycles,
		"gc.cpu_frac":             gcFrac,
	} {
		into[k] = v
	}
	if rec := tr.spanMs("store.record"); rec > 0 {
		into["store.persist_ms"] = rec - tr.spanMs("algoprof.record")
		into["store.replay_overhead_ms"] = tr.spanMs("store.replay") - tr.spanMs("trace.replay_profile")
	}
}

// zeroLayers sets every per-layer metric to 0, so a workload reports the
// layers it does not exercise as 0 rather than leaving them out.
func zeroLayers(into map[string]float64) {
	for _, d := range perLayer {
		into[d.name] = 0
	}
}
