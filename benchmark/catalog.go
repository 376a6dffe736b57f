package main

import "fmt"

// metricSpec names one metric; BENCHMARK.json carries the same list, and a
// test holds the two together.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected (per-layer: none).
	Bound float64 `json:"bound,omitempty"`
}

// endToEndMetrics are measured with tracing off, on every workload. The op
// they speak of is the workload's own (README.md has the table). The timing
// bounds are as wide as the manifest allows because the machine they were
// first measured on is: at allocation counts identical to four digits, the
// wall-time medians of ten runs spread 10-35% between their quartiles; the
// timings are therefore host-normalized (meter.go), which brings that to
// 2-7% with sets of ten within 8% of each other (baseline.json). The sharp
// gate is alloc_mb_per_op, which repeats.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayerMetrics are what a traced run reports, named layer.metric. Each
// value is the median of the raw observations recorded under that name.
var perLayerMetrics = []metricSpec{
	{"topogen.generate_ms", "ms", "lower", 0},
	{"topogen.spec_mb", "MB", "lower", 0},

	{"spec.parse_ms", "ms", "lower", 0},
	{"spec.parse_mb_per_s", "MB/s", "higher", 0},
	{"spec.graph_ms", "ms", "lower", 0},

	{"dataflow.analyze_ms", "ms", "lower", 0},
	{"dataflow.analyze_alloc_mb", "MB", "lower", 0},
	{"dataflow.analyze_allocs_per_component", "count", "lower", 0},
	{"dataflow.synthesize_ms", "ms", "lower", 0},
	{"dataflow.lint_ms", "ms", "lower", 0},
	{"dataflow.lint_findings", "count", "lower", 0},
	{"dataflow.incremental_label_ms", "ms", "lower", 0},
	{"dataflow.incremental_rebuild_ms", "ms", "lower", 0},
	{"dataflow.incremental_alloc_mb_per_edit", "MB", "lower", 0},
	{"dataflow.incremental_recomputed_per_edit", "count", "lower", 0},
	{"dataflow.incremental_reused_share", "share", "higher", 0},

	{"blazes.synthesize_ms", "ms", "lower", 0},
	{"blazes.report_project_ms", "ms", "lower", 0},
	{"blazes.report_encode_ms", "ms", "lower", 0},
	{"blazes.report_mb", "MB", "lower", 0},
	{"blazes.session_open_ms", "ms", "lower", 0},
	{"blazes.session_mutate_us", "us", "lower", 0},
	{"blazes.session_edit_p95_ms", "ms", "lower", 0},
	{"blazes.session_rebuild_p50_ms", "ms", "lower", 0},
	{"blazes.session_project_ms", "ms", "lower", 0},
	{"blazes.session_retained_mb", "MB", "lower", 0},

	{"service.create_p50_ms", "ms", "lower", 0},
	{"service.mutate_p50_ms", "ms", "lower", 0},
	{"service.analyze_p50_ms", "ms", "lower", 0},
	{"service.lint_p50_ms", "ms", "lower", 0},
	{"service.get_p50_ms", "ms", "lower", 0},
	{"service.delete_p50_ms", "ms", "lower", 0},
	{"service.write_p50_ms", "ms", "lower", 0},
	{"service.read_p50_ms", "ms", "lower", 0},
	{"service.write_p99_ms", "ms", "lower", 0},
	{"service.read_p99_ms", "ms", "lower", 0},
	{"service.handler_mutate_p50_ms", "ms", "lower", 0},
	{"service.mutate_nojournal_p50_ms", "ms", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"service.recover_ms", "ms", "lower", 0},

	{"journal.append_p50_ms", "ms", "lower", 0},
	{"journal.append_p99_ms", "ms", "lower", 0},
	{"journal.group_factor", "ratio", "higher", 0},
	{"journal.fsyncs_per_write", "ratio", "lower", 0},
	{"journal.bytes_per_write", "B", "lower", 0},
	{"journal.snapshots", "count", "lower", 0},
	{"journal.snapshot_ms", "ms", "lower", 0},
	{"journal.open_ms", "ms", "lower", 0},

	{"storm.sealed5_s", "s", "lower", 0},
	{"storm.sealed20_s", "s", "lower", 0},
	{"storm.tx5_s", "s", "lower", 0},
	{"storm.tx20_s", "s", "lower", 0},
	{"storm.ktuples_per_s", "1/s", "higher", 0},
	{"storm.allocs_per_tuple", "count", "lower", 0},
	{"storm.alloc_mb_per_cell", "MB", "lower", 0},
	{"storm.engine_self_s", "s", "lower", 0},
	{"storm.fig11_ratio5", "ratio", "higher", 0},
	{"storm.fig11_ratio20", "ratio", "higher", 0},
	{"storm.emitted_tuples", "count", "higher", 0},
	{"storm.acked_batches", "count", "higher", 0},

	{"wc.spout_ktuples_per_s", "1/s", "higher", 0},
	{"wc.bolt_ktuples_per_s", "1/s", "higher", 0},

	{"sim.heap_mevents_per_s", "1/s", "higher", 0},
	{"sim.steps", "count", "lower", 0},
	{"sim.pool_map_us", "us", "lower", 0},

	{"chaos.plan_ms", "ms", "lower", 0},
	{"chaos.run_s", "s", "lower", 0},
	{"chaos.fold_ms", "ms", "lower", 0},
	{"chaos.assemble_ms", "ms", "lower", 0},
	{"chaos.shrink_ms", "ms", "lower", 0},
	{"chaos.schedules_per_s", "1/s", "higher", 0},
	{"chaos.wordcount_schedules_per_s", "1/s", "higher", 0},
	{"chaos.bloom_schedules_per_s", "1/s", "higher", 0},
	{"chaos.adtrack_schedules_per_s", "1/s", "higher", 0},
	{"chaos.synthetic_schedules_per_s", "1/s", "higher", 0},
	{"chaos.cells", "count", "higher", 0},
	{"chaos.anomalous_cells", "count", "higher", 0},
	{"chaos.traces", "count", "higher", 0},

	{"bloom.newnode_us", "us", "lower", 0},
	{"bloom.deliver_krows_per_s", "1/s", "higher", 0},
	{"bloom.tick_us", "us", "lower", 0},

	{"adtrack.run_uncoordinated_ms", "ms", "lower", 0},
	{"adtrack.run_ordered_ms", "ms", "lower", 0},
	{"adtrack.run_sealed_ms", "ms", "lower", 0},
	{"adtrack.run_quorum_ms", "ms", "lower", 0},
	{"coord.sequencer_messages", "count", "lower", 0},
	{"coord.quorum_messages", "count", "lower", 0},

	{"host.calibration_ms", "ms", "lower", 0},
	{"host.fsync_p50_ms", "ms", "lower", 0},
	{"host.nproc", "count", "higher", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"trace.op_p50_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// spanMetrics maps a span name to the per-layer metric its durations feed,
// with the factor that converts milliseconds to the metric's unit.
var spanMetrics = []struct {
	span, metric string
	perMs        float64
}{
	{"topogen.generate", "topogen.generate_ms", 1},
	{"spec.parse", "spec.parse_ms", 1},
	{"spec.graph", "spec.graph_ms", 1},
	{"dataflow.analyze", "dataflow.analyze_ms", 1},
	{"dataflow.synthesize", "dataflow.synthesize_ms", 1},
	{"dataflow.lint", "dataflow.lint_ms", 1},
	{"dataflow.incremental_label", "dataflow.incremental_label_ms", 1},
	{"dataflow.incremental_rebuild", "dataflow.incremental_rebuild_ms", 1},
	{"blazes.synthesize", "blazes.synthesize_ms", 1},
	{"blazes.report_project", "blazes.report_project_ms", 1},
	{"blazes.report_encode", "blazes.report_encode_ms", 1},
	{"blazes.session_open", "blazes.session_open_ms", 1},
	{"blazes.session_mutate", "blazes.session_mutate_us", 1e3},
	{"service.create", "service.create_p50_ms", 1},
	{"service.mutate", "service.mutate_p50_ms", 1},
	{"service.analyze", "service.analyze_p50_ms", 1},
	{"service.lint", "service.lint_p50_ms", 1},
	{"service.get", "service.get_p50_ms", 1},
	{"service.delete", "service.delete_p50_ms", 1},
	{"service.recover", "service.recover_ms", 1},
	{"journal.snapshot", "journal.snapshot_ms", 1},
	{"journal.open", "journal.open_ms", 1},
	{"storm.sealed5", "storm.sealed5_s", 1e-3},
	{"storm.sealed20", "storm.sealed20_s", 1e-3},
	{"storm.tx5", "storm.tx5_s", 1e-3},
	{"storm.tx20", "storm.tx20_s", 1e-3},
	{"chaos.plan", "chaos.plan_ms", 1},
	{"chaos.fold", "chaos.fold_ms", 1},
	{"chaos.assemble", "chaos.assemble_ms", 1},
	{"chaos.shrink", "chaos.shrink_ms", 1},
	{"bloom.newnode", "bloom.newnode_us", 1e3},
	{"bloom.tick", "bloom.tick_us", 1e3},
	{"adtrack.run_uncoordinated", "adtrack.run_uncoordinated_ms", 1},
	{"adtrack.run_ordered", "adtrack.run_ordered_ms", 1},
	{"adtrack.run_sealed", "adtrack.run_sealed_ms", 1},
	{"adtrack.run_quorum", "adtrack.run_quorum_ms", 1},
}

// layerMetrics turns the recorder's spans and observations into the report's
// per-layer metrics.
func layerMetrics(rec *recorder, rep *report) error {
	for _, sm := range spanMetrics {
		for _, ms := range rec.durations(sm.span) {
			rec.observe(sm.metric, ms*sm.perMs)
		}
	}
	for _, s := range perLayerMetrics {
		obs := rec.obs[s.Name]
		if len(obs) == 0 {
			return fmt.Errorf("per-layer metric %s has no observation", s.Name)
		}
		rep.Metrics[s.Name] = metricValue{median(obs), s.Unit}
	}
	return nil
}
