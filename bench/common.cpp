#include "common.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#ifdef __linux__
#include <unistd.h>
#endif

namespace strings::bench {

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
  }
  if (const char* env = std::getenv("STRINGS_BENCH_QUICK");
      env != nullptr && env[0] == '1') {
    opt.quick = true;
  }
  return opt;
}

namespace {
// Directory for per-run observability artifacts, or nullptr when the
// STRINGS_TRACE_DIR env toggle is unset.
const char* trace_dir() {
  const char* dir = std::getenv("STRINGS_TRACE_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : nullptr;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label.empty() ? std::string("run") : label;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      c = '_';
    }
  }
  return out;
}

// --- BENCH_report.json recorder (the CI perf-gate input) -----------------

// Report file for the perf gate, or nullptr when the STRINGS_BENCH_REPORT
// env toggle is unset. Read per call so tests can toggle it at runtime.
const char* bench_report_path() {
  const char* p = std::getenv("STRINGS_BENCH_REPORT");
  return (p != nullptr && p[0] != '\0') ? p : nullptr;
}

// Entries recorded by this process, keyed "<binary>/<label>[#k]". The
// binary prefix keeps labels that several benches share (e.g. the
// balancing_matrix configs) distinct once every bench merges into one
// file; #k disambiguates repeated labels within one binary.
std::map<std::string, std::string>& report_entries() {
  static std::map<std::string, std::string> entries;
  return entries;
}

std::string report_binary_name() {
  static const std::string name = [] {
#ifdef __linux__
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
      buf[n] = '\0';
      const char* slash = std::strrchr(buf, '/');
      return std::string(slash != nullptr ? slash + 1 : buf);
    }
#endif
    return std::string("bench");
  }();
  return name;
}

// Keys an entry "<binary>/<label>[#k]", stores it, and arms the at-exit
// flush. Shared by run() and record_bench_entry.
void store_report_entry(const std::string& label, const std::string& value) {
  static std::map<std::string, int> key_counts;
  std::string key = report_binary_name() + "/" + sanitize_label(label);
  const int n = ++key_counts[key];
  if (n > 1) key += "#" + std::to_string(n);
  report_entries()[key] = value;
  static const bool registered = [] {
    std::atexit(flush_bench_report);
    return true;
  }();
  (void)registered;
}

void record_bench_report(const std::string& label,
                         const workloads::ScenarioConfig& cfg,
                         const workloads::ScenarioRunResult& out,
                         double wall_s) {
  if (bench_report_path() == nullptr) return;
  std::vector<double> responses;
  for (const auto& st : out.streams) {
    for (const sim::SimTime t : st.response_times) {
      responses.push_back(sim::to_seconds(t));
    }
  }
  std::vector<double> attained, shares;
  for (const auto& [tenant, service] : out.tenant_service_s) {
    attained.push_back(service);
    double weight = 1.0;
    for (const auto& s : cfg.streams) {
      if (s.tenant == tenant) {
        weight = s.tenant_weight;
        break;
      }
    }
    shares.push_back(weight);
  }
  char value[256];
  std::snprintf(value, sizeof(value),
                "{\"makespan_s\":%.9f,\"p50_s\":%.9f,\"p99_s\":%.9f,"
                "\"jain\":%.6f,\"wall_s\":%.6f}",
                sim::to_seconds(out.makespan),
                metrics::percentile(responses, 50.0),
                metrics::percentile(responses, 99.0),
                metrics::jain_fairness(attained, shares), wall_s);
  store_report_entry(label, value);
}
}  // namespace

workloads::ScenarioRunResult run(const std::string& label,
                                 const workloads::ScenarioConfig& cfg) {
  workloads::RunArtifacts artifacts;
  if (const char* dir = trace_dir()) {
    // Pointing STRINGS_TRACE_DIR at a fresh path is the common case in CI;
    // create it instead of failing every run.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string base = std::string(dir) + "/" + sanitize_label(label);
    artifacts.trace_path = base + ".trace.json";
    artifacts.metrics_path = base + ".metrics.csv";
  }
  const auto wall_start = std::chrono::steady_clock::now();
  workloads::ScenarioRunResult out = workloads::run_scenario(cfg, artifacts);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  record_bench_report(label, cfg, out, wall.count());
  return out;
}

void record_bench_entry(const std::string& label, const std::string& value) {
  if (bench_report_path() == nullptr) return;
  store_report_entry(label, value);
}

double mean_response(const workloads::ScenarioRunResult& out,
                     std::size_t idx) {
  return out.streams.at(idx).mean_response_s();
}

metrics::ControlPlaneSummary control_plane_summary(
    const std::string& label, const workloads::ScenarioRunResult& out) {
  const core::ControlPlaneStats& s = out.control_plane;
  metrics::ControlPlaneSummary sum;
  sum.label = label;
  sum.select_rpcs = s.select_rpcs;
  sum.unbind_rpcs = s.unbind_rpcs;
  sum.sync_rpcs = s.sync_rpcs;
  sum.oneway_msgs = s.oneway_msgs;
  sum.feedback_records = s.feedback_records;
  sum.feedback_batches = s.feedback_batches;
  sum.stale_hits = s.stale_hits;
  sum.deltas_sent = s.deltas_sent;
  sum.deltas_applied = s.deltas_applied;
  sum.delta_gap_syncs = s.delta_gap_syncs;
  sum.direct_calls = s.direct_calls;
  sum.bytes = s.bytes_sent;
  sum.packets = s.packets_sent;
  sum.max_snapshot_age_ms = sim::to_millis(s.max_snapshot_age);
  sum.placement_latencies_ms.reserve(s.placement_latencies.size());
  for (const sim::SimTime t : s.placement_latencies) {
    sum.placement_latencies_ms.push_back(sim::to_millis(t));
  }
  return sum;
}

std::vector<LabeledTestbed> balancing_matrix(
    const std::vector<std::vector<gpu::DeviceProps>>& nodes) {
  std::vector<LabeledTestbed> configs;
  for (const auto* policy : {"GRR", "GMin", "GWtMin"}) {
    for (const auto mode : {workloads::Mode::kRain, workloads::Mode::kStrings}) {
      LabeledTestbed cfg;
      cfg.label = std::string(policy) + "-" + workloads::mode_name(mode);
      cfg.testbed.mode = mode;
      cfg.testbed.nodes = nodes;
      cfg.testbed.balancing_policy = policy;
      configs.push_back(std::move(cfg));
    }
  }
  return configs;
}

std::vector<double> single_node_grr_baseline(
    const std::vector<workloads::ArrivalConfig>& streams,
    workloads::Mode mode) {
  // Each stream gets its own 2-GPU node under GRR, independently — the
  // "single node GRR" the paper measures the supernode figures against.
  std::vector<double> result;
  for (const auto& s : streams) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = mode;
    cfg.testbed.nodes = workloads::small_server();
    cfg.testbed.balancing_policy = "GRR";
    cfg.streams = {s};
    cfg.streams[0].origin = 0;
    result.push_back(mean_response(run("single-node-GRR", cfg), 0));
  }
  return result;
}

void report_table(const std::string& name, const metrics::Table& table) {
  table.print();
  const char* dir = std::getenv("STRINGS_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << table.to_csv();
  std::printf("(csv written to %s)\n", path.c_str());
}

void flush_bench_report() {
  const char* path = bench_report_path();
  if (path == nullptr || report_entries().empty()) return;
  // The report file is shared by the whole bench sweep: merge with
  // whatever an earlier binary wrote (same line-oriented schema
  // tools/bench_gate parses), our entries winning on key collisions.
  std::map<std::string, std::string> merged;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      const std::size_t q0 = line.find('"');
      if (q0 == std::string::npos) continue;
      const std::size_t q1 = line.find('"', q0 + 1);
      if (q1 == std::string::npos) continue;
      const std::size_t brace = line.find('{', q1);
      const std::size_t close = line.rfind('}');
      if (brace == std::string::npos || close == std::string::npos ||
          close < brace) {
        continue;
      }
      merged[line.substr(q0 + 1, q1 - q0 - 1)] =
          line.substr(brace, close - brace + 1);
    }
  }
  for (const auto& [key, value] : report_entries()) merged[key] = value;
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : merged) {
    out << "  \"" << key << "\": " << value;
    if (++i < merged.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
}

void print_header(const std::string& title, const std::string& paper_ref,
                  const Options& opt) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s%s\n\n", paper_ref.c_str(),
              opt.quick ? "   [--quick sweep]" : "");
}

}  // namespace strings::bench
