// Shared experiment machinery for the figure-reproduction benches.
//
// Every bench binary describes each run as a workloads::ScenarioConfig
// (testbed, request streams, optional horizon), runs it in virtual time
// through run() -- workloads::run_scenario plus the bench-only wall clock,
// STRINGS_TRACE_DIR and STRINGS_BENCH_REPORT toggles -- and prints a table
// mirroring the paper's figure. Pass --quick (or set STRINGS_BENCH_QUICK=1)
// for a reduced sweep.
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "workloads/scenario_config.hpp"

namespace strings::bench {

struct Options {
  bool quick = false;
  static Options parse(int argc, char** argv);
};

/// A labelled testbed configuration. The label names the run in the perf
/// report and in STRINGS_TRACE_DIR file names.
struct LabeledTestbed {
  std::string label;
  workloads::TestbedConfig testbed;
};

/// Runs `cfg` through workloads::run_scenario. When STRINGS_TRACE_DIR is
/// set, the run executes with observability tracing on and writes
/// <dir>/<label>.trace.json (Chrome trace-event format, loadable in
/// Perfetto) plus <dir>/<label>.metrics.csv. When STRINGS_BENCH_REPORT is
/// set, records the run's perf-report entry under `label`.
workloads::ScenarioRunResult run(const std::string& label,
                                 const workloads::ScenarioConfig& cfg);

/// Mean response time (seconds) of stream `idx`.
double mean_response(const workloads::ScenarioRunResult& out,
                     std::size_t idx);

/// Flattens control-plane counters for metrics::control_plane_table.
metrics::ControlPlaneSummary control_plane_summary(
    const std::string& label, const workloads::ScenarioRunResult& out);

/// The six balancing configurations of Figs. 9/10:
/// {GRR, GMin, GWtMin} x {Rain, Strings}.
std::vector<LabeledTestbed> balancing_matrix(
    const std::vector<std::vector<gpu::DeviceProps>>& nodes);

/// The paper's Fig. 10/12/14/15 baseline: each stream served by its own
/// single node (2 GPUs) under GRR ("single node GRR" — the previous
/// section's scheduler generation, i.e. Rain). Returns the mean response
/// per stream, computed on independent testbeds.
std::vector<double> single_node_grr_baseline(
    const std::vector<workloads::ArrivalConfig>& streams,
    workloads::Mode mode = workloads::Mode::kRain);

/// Prints the standard bench header.
void print_header(const std::string& title, const std::string& paper_ref,
                  const Options& opt);

/// Prints the results table and, when STRINGS_BENCH_CSV_DIR is set, also
/// writes it as <dir>/<name>.csv for artifact collection.
void report_table(const std::string& name, const metrics::Table& table);

/// Perf-gate hook. When STRINGS_BENCH_REPORT names a file, every run()
/// call records an entry
///   "<bench binary>/<label>": {makespan_s, p50_s, p99_s, jain, wall_s}
/// and the process merges its entries into that JSON file at exit, so a
/// whole bench sweep accumulates one report (tools/bench_gate compares two
/// such files; wall_s is the host wall-clock cost of the run and gates
/// warn-only — see docs/perf_gate.md). Idempotent; exposed so tests can
/// flush without exiting.
void flush_bench_report();

/// Records a raw perf-report entry "<bench binary>/<label>[#k]" with a
/// preformatted JSON object value (e.g. {"wall_s":...,"events_per_sec":...}).
/// Used by micro benches for metrics run() cannot compute, such as
/// event-loop throughput. No-op when STRINGS_BENCH_REPORT is unset.
void record_bench_entry(const std::string& label, const std::string& value);

}  // namespace strings::bench
