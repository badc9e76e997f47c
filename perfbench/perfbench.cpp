// Repository benchmark program.
//
// Generates one workload's inputs from a seed, hands them to the public
// workloads API (Testbed, start_streams / start_open_loop, Simulation::run),
// times the calls into each layer from outside, checks the outputs, and
// prints every metric by name with its unit. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 it carries the end-to-end metrics, pooled over the workload's
// seeded replicas; with --trace 1 the per-layer metrics of replica 0,
// including a hook-traced pass. perfbench/README.md explains the workloads
// and what each metric should move.
//
//   strings_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--spans-out <file>] [--print-inputs]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/export.hpp"
#include "obs/prof.hpp"
#include "obs/timeseries.hpp"
#include "simcore/small_fn.hpp"
#include "span_tracer.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/scenario_config.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace {

namespace wl = strings::workloads;
namespace sim = strings::sim;
namespace obs = strings::obs;
using perfbench::SpanTracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread. The simulator runs on this one thread,
/// so this is its host cost without the time a busy host kept it waiting.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// splitmix64 of (seed, salt): independent, platform-stable sub-seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over a list of virtual times (a compact fingerprint).
std::uint64_t digest(const std::vector<sim::SimTime>& times) {
  std::uint64_t h = 1469598103934665603ull;
  for (const sim::SimTime t : times) {
    h = (h ^ static_cast<std::uint64_t>(t)) * 1099511628211ull;
  }
  return h;
}

/// A scenario-file seed (the parser takes a positive int).
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t salt) {
  return 1 + mix(seed, salt) % 0x7ffffffeull;
}

// ------------------------------------------------------------ workloads --

/// Paper Fig. 10 pair B (DC at node 0, MC at node 1) on the 4-GPU supernode
/// under GWtMin-Strings with AllAwake device scheduling, fed by the Fig. 8
/// closed service model: exponential arrivals into 8 server threads per
/// stream. `observed` turns on the tracer and streaming telemetry.
std::string closed_supernode_text(std::uint64_t seed, int dc_requests,
                                  int mc_requests, double lambda_scale,
                                  bool observed) {
  std::ostringstream s;
  s << "mode = strings\ntopology = supernode\nbalancing = GWtMin\n"
       "device_policy = AllAwake\n";
  if (observed) s << "trace = true\nstream = true\n";
  const auto stream = [&](const char* app, int origin, int requests,
                          std::uint64_t salt, const char* tenant) {
    s << "\n[stream]\napp = " << app << "\norigin = " << origin
      << "\nrequests = " << requests
      << "\nlambda_scale = " << lambda_scale << "\nserver_threads = 8\nseed = "
      << scenario_seed(seed, salt) << "\ntenant = " << tenant << "\n";
  };
  stream("DC", 0, dc_requests, 1, "tenantA");
  stream("MC", 1, mc_requests, 2, "tenantB");
  return s.str();
}

/// Open-loop serverless traffic (after MQFQ-Sticky) on 32 nodes x 2 GPUs,
/// one tenant per node so device memory stays under the knee: tenants
/// alternate Poisson and bursty MMPP-2 arrivals at 0.5 req/s, every request
/// is its own short-lived fiber with a bind/unbind handshake, MQFQ device
/// scheduling, and distributed placement with push DST deltas over shared
/// data-plane wires.
std::string open_churn_text(std::uint64_t seed) {
  constexpr int kNodes = 32;
  constexpr int kRequestsPerTenant = 40;
  static const char* const kApps[] = {"MC", "BS", "GA", "SN"};
  std::ostringstream s;
  s << "mode = strings\ntopology = " << kNodes
    << "x2\nbalancing = GWtMin\ndevice_policy = mqfq\n"
       "placement = distributed\ncontrol_transport = data_plane\n"
       "sync_mode = push\nshared_network = true\n";
  for (int t = 0; t < kNodes; ++t) {
    const bool bursty = t % 2 == 1;
    s << "\n[tenant]\nname = fn" << t << "\napp = " << kApps[t % 4]
      << "\norigin = " << t << "\narrival = "
      << (bursty ? "bursty\nburst_factor = 6\nburst_on_ms = 2000\n"
                   "burst_off_ms = 8000"
                 : "poisson")
      << "\nrate = 0.5\nrequests = " << kRequestsPerTenant
      << "\nseed = " << scenario_seed(seed, 100 + t) << "\n";
  }
  return s.str();
}

/// A small open-loop churn mix in the shape of open_loop_overload.scenario
/// (steady, bursty and late-attaching tenants on a 2-GPU server under
/// MQFQ-Sticky) with the protocol analyzer on. Only the steady tenant runs
/// BS: with BS also on the churn tenant, about 1.5% of inputs piled enough
/// 160 MB BS buffers onto one GPU to fail allocations.
std::string analyzed_text(std::uint64_t seed) {
  std::ostringstream s;
  s << "mode = strings\ntopology = small\nbalancing = GWtMin\nfeedback = MBF\n"
       "device_policy = mqfq\nmqfq_T = 25\nmqfq_sticky_ms = 2\n"
       "analyze = true\n";
  s << "\n[tenant]\nname = steady-svc\napp = BS\norigin = 0\n"
       "arrival = poisson\nrate = 3\nrequests = 20\nseed = "
    << scenario_seed(seed, 1) << "\n";
  s << "\n[tenant]\nname = burst-svc\napp = GA\norigin = 0\n"
       "arrival = bursty\nrate = 1.5\nburst_factor = 6\nburst_on_ms = 300\n"
       "burst_off_ms = 500\nrequests = 24\nseed = "
    << scenario_seed(seed, 2) << "\n";
  s << "\n[tenant]\nname = churn-svc\napp = GA\norigin = 0\n"
       "arrival = poisson\nrate = 4\nrequests = 16\nattach_ms = 500\n"
       "detach_ms = 20000\nweight = 2.0\nseed = "
    << scenario_seed(seed, 3) << "\n";
  return s.str();
}

/// One workload's generated inputs.
struct Inputs {
  std::string scenario_text;
  wl::ScenarioConfig cfg;
  /// Requests each stats row will see: closed streams first, then tenants
  /// (the arrival schedule length, which churn windows can truncate).
  std::vector<int> row_requests;
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  if (workload == "closed_supernode") {
    // lambda_scale 1.0 queues requests without saturating: response times
    // stay flat as the request count grows (at 0.22 the DC queue grows
    // without bound). Nearer saturation, at 0.6, the p99 of 1200 responses
    // swung between 42 and 81 s from seed to seed.
    in.scenario_text = closed_supernode_text(seed, 400, 800, 1.0, false);
  } else if (workload == "open_churn") {
    in.scenario_text = open_churn_text(seed);
  } else if (workload == "observed") {
    // A burst of 42: seed-steady virtual-time results at this size, and a
    // trace under 2^20 events, past which the tracer's event vector doubles
    // and peak memory jumps between seeds.
    in.scenario_text = closed_supernode_text(seed, 14, 28, 0.01, true);
  } else if (workload == "analyzed") {
    in.scenario_text = analyzed_text(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  in.cfg = wl::parse_scenario(in.scenario_text);
  for (const auto& s : in.cfg.streams) in.row_requests.push_back(s.requests);
  for (const auto& t : in.cfg.tenants) {
    in.row_requests.push_back(
        static_cast<int>(wl::arrival_schedule(t).size()));
  }
  return in;
}

/// Independent replications per run: replica k's arrival seeds derive from
/// (seed, k), and the end-to-end metrics average or pool the replicas, so
/// their spread across seeds shrinks with the count. Each count fits one
/// pass of every replica in 15 to 19 s, inside a 25-second run.
int replica_count(const std::string& workload) {
  if (workload == "closed_supernode") return 10;
  if (workload == "open_churn") return 7;
  return workload == "observed" ? 11 : 16;
}

std::vector<Inputs> make_replicas(const std::string& workload,
                                  std::uint64_t seed) {
  std::vector<Inputs> out;
  for (int k = 0; k < replica_count(workload); ++k) {
    out.push_back(make_inputs(workload, mix(seed, 1000 + k)));
  }
  return out;
}

/// The same inputs with the workload's observability facility off (tracer,
/// streaming and profiler for `observed`, the analyzer for `analyzed`).
Inputs facility_off(const Inputs& in) {
  Inputs off = in;
  off.cfg.testbed.trace = false;
  off.cfg.testbed.stream = false;
  off.cfg.testbed.analyze = false;
  return off;
}

/// Observability on: tracer, streaming telemetry, and the profiler run on
/// the tracer at export.
bool observed(const Inputs& in) {
  return in.cfg.testbed.trace && in.cfg.testbed.stream;
}

bool has_facility(const Inputs& in) {
  return observed(in) || in.cfg.testbed.analyze;
}

// ---------------------------------------------------------------- a pass --

/// An std::ostream that discards its bytes and counts them, so export
/// timings contain formatting but no disk I/O.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

struct CountingStream {
  CountingBuf buf;
  std::ostream os{&buf};
};

/// What one pass measured. `det` holds every virtual-time result and every
/// per-layer count: a pure function of the inputs, so it must repeat
/// exactly across passes.
struct Pass {
  double setup_s = 0;
  double run_s = 0;      // wall time
  double run_cpu_s = 0;  // thread CPU time
  double export_s = 0;
  double prof_s = 0;
  double report_s = 0;
  std::map<std::string, double> det;
  std::vector<sim::SimTime> responses;  // sorted
  int requests = 0;
  int failed = 0;
  // Traced passes only: the run as the tracer timed it, its buckets, and
  // whether they sum to it exactly.
  double traced_run_s = 0;
  double kernel_s = 0;
  std::array<double, SpanTracer::kFamilies> family_s{};
  bool buckets_partition = false;
};

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<sim::SimTime>& sorted, double p,
                  int* beyond = nullptr) {
  if (sorted.empty()) throw std::runtime_error("no request completed");
  const auto n = static_cast<double>(sorted.size());
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * n)) - 1);
  if (beyond != nullptr) *beyond = static_cast<int>(sorted.size() - k - 1);
  return sim::to_seconds(sorted[k]);
}

/// Fills virtual-time results and per-layer counts from a drained run.
void collect(const Inputs& in, wl::Testbed& bed,
             const std::vector<wl::StreamStats>& rows, Pass& p) {
  sim::Simulation& s = bed.simulation();
  auto& d = p.det;

  std::vector<sim::SimTime> responses;
  sim::SimTime makespan = 0;
  int completed = 0;
  int errors = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const wl::StreamStats& row = rows[r];
    const int req = in.row_requests[r];
    responses.insert(responses.end(), row.response_times.begin(),
                     row.response_times.end());
    makespan = std::max(makespan, row.makespan);
    completed += row.completed;
    errors += row.errors;
    p.requests += req;
    p.failed += std::min(req, (req - row.completed) + row.errors);
  }
  std::sort(responses.begin(), responses.end());
  // Every response time, folded to a double-exact 32-bit fingerprint.
  d["check.responses"] = static_cast<double>(digest(responses) & 0xffffffffu);

  d["vt_makespan_s"] = sim::to_seconds(makespan);
  std::set<std::string> tenants;
  for (const auto& st : in.cfg.streams) tenants.insert(st.tenant);
  for (const auto& t : in.cfg.tenants) tenants.insert(t.name);
  double sum = 0, sum_sq = 0;
  for (const auto& t : tenants) {
    const double x = bed.attained_service_s(t);
    sum += x;
    sum_sq += x * x;
  }
  d["vt_jain"] = sum_sq > 0 ? sum * sum / (double(tenants.size()) * sum_sq)
                            : 0.0;

  d["simcore.events"] = double(s.events_executed());
  d["simcore.fiber_spawns"] = double(s.kernel_stats().fibers_spawned);
  d["simcore.fiber_resumes"] = double(s.kernel_stats().fiber_resumes);
  d["simcore.queue_pushes"] = double(s.queue_stats().pushes);
  d["simcore.queue_retunes"] = double(s.queue_stats().retunes);
  d["simcore.queue_max_bucket_scan"] = double(s.queue_stats().max_bucket_scan);

  std::int64_t epochs = 0, wakes = 0, sleeps = 0, registered = 0;
  std::uint64_t packets = 0, bytes = 0, live = 0;
  for (int n = 0; n < bed.node_count(); ++n) {
    auto& daemon = bed.daemon(n);
    packets += daemon.wire_packets();
    bytes += daemon.wire_bytes();
    live += daemon.live_connections();
    for (int g = 0; g < daemon.device_count(); ++g) {
      const auto& sched = daemon.scheduler(g);
      epochs += sched.epochs_run();
      wakes += sched.dispatcher_wakes();
      sleeps += sched.dispatcher_sleeps();
      registered += sched.registered_count();
    }
  }
  d["core.sched_epochs"] = double(epochs);
  d["core.sched_wakes"] = double(wakes);
  d["core.sched_sleeps"] = double(sleeps);
  d["core.wakes_per_epoch"] = epochs > 0 ? double(wakes) / double(epochs) : 0;
  d["core.registered_at_end"] = double(registered);
  const auto cp = bed.control_plane_stats();
  d["core.select_rpcs"] = double(cp.select_rpcs);
  d["core.unbind_rpcs"] = double(cp.unbind_rpcs);
  d["core.sync_rpcs"] = double(cp.sync_rpcs);
  d["core.deltas_sent"] = double(bed.mapper().deltas_sent());
  d["core.deltas_applied"] = double(cp.deltas_applied);
  d["core.delta_gap_syncs"] = double(cp.delta_gap_syncs);
  d["core.stale_hit_share"] =
      cp.placements.empty()
          ? 0.0
          : double(cp.stale_hits) / double(cp.placements.size());

  d["backend.wire_packets"] = double(packets);
  d["backend.wire_bytes"] = double(bytes);
  d["backend.connections_at_end"] = double(live);
  d["cudart.errors"] = double(errors);

  std::int64_t kernels = 0, copies = 0, switches = 0;
  sim::SimTime busy = 0;
  for (int g = 0; g < bed.gpu_count(); ++g) {
    const auto& c = bed.device(g).counters();
    kernels += c.kernels_completed;
    copies += c.copies_completed;
    switches += c.context_switches;
    busy += c.compute_busy_time;
  }
  d["gpu.kernels"] = double(kernels);
  d["gpu.copies"] = double(copies);
  d["gpu.context_switches"] = double(switches);
  d["gpu.compute_busy_share"] =
      makespan > 0 ? double(busy) / (double(bed.gpu_count()) * double(makespan))
                   : 0.0;

  d["workloads.requests_generated"] = double(p.requests);
  d["workloads.requests_completed"] = double(completed);

  d["obs.trace_events"] =
      bed.tracer() != nullptr ? double(bed.tracer()->events().size()) : 0.0;
  if (auto* a = bed.analyzer()) {
    d["analysis.invariant_violations"] = a->report().invariant_violations();
    d["analysis.logical_races"] = a->report().logical_races();
  } else {
    d["analysis.invariant_violations"] = 0;
    d["analysis.logical_races"] = 0;
  }
  p.responses = std::move(responses);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host time a pass spends on repeated exports, and a run on set-ups alone:
/// enough repetitions that a microsecond-scale median rests on many samples.
constexpr double kMinExportS = 0.02;
constexpr double kMinSetupS = 0.3;
constexpr std::size_t kMinSetups = 21;
constexpr int kSetupRounds = 7;

/// The host-speed scale of every end-to-end host time: the reference
/// probe's CPU time on the 4-vCPU Xeon virtual machine the benchmark was
/// defined on. A host time t measured beside probe time p is reported as
/// t * kProbeRefS / p.
constexpr double kProbeRefS = 0.075;

/// A fixed reference workload in the simulator's style but independent of
/// its code: an event loop over a binary heap whose handlers look up and
/// grow per-key state in a hash map, about 3 MiB in all. Returns its thread
/// CPU time, which tracks how fast the host currently runs such code. Any
/// change to it rescales every end-to-end host time.
double reference_probe_s() {
  struct Ev {
    std::uint64_t t;
    std::uint32_t key;
    bool operator>(const Ev& o) const { return t > o.t; }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> state;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  const double t0 = thread_cpu_s();
  for (std::uint32_t i = 0; i < 4096; ++i) q.push({i, i});
  for (int n = 0; n < 400000; ++n) {
    const Ev e = q.top();
    q.pop();
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    auto& v = state[e.key];
    if (v.size() >= 8) v.clear();
    v.push_back(x);
    acc += v.front();
    q.push({e.t + (x >> 52), static_cast<std::uint32_t>((x >> 24) % 20000)});
  }
  const double dt = thread_cpu_s() - t0;
  // Keeps the loop's result observable, so it cannot be optimised away.
  if (acc == 0) std::cerr << "reference probe: degenerate\n";
  return dt;
}

/// One run of the inputs: set up, run to drain, export, collect. With a
/// tracer, the run is hook-traced and the span buckets are kept.
Pass run_pass(const Inputs& in, SpanTracer* tracer = nullptr) {
  Pass p;
  const std::uint64_t smallfn_base = sim::small_fn_heap_fallbacks();
  CountingStream stream_out;
  std::uint64_t windows = 0;

  const auto t_setup = Clock::now();
  sim::Simulation s;
  wl::Testbed bed(s, in.cfg.testbed);
  if (observed(in)) {
    bed.set_stream_sink([&stream_out, &windows](
                            const obs::Window& w,
                            const std::vector<obs::SloAlert>&,
                            const std::vector<std::string>&) {
      obs::write_stream_line(stream_out.os, w);
      ++windows;
    });
  }
  auto closed = wl::start_streams(bed, in.cfg.streams);
  auto open = wl::start_open_loop(bed, in.cfg.tenants);
  p.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  const double cpu0 = thread_cpu_s();
  if (tracer != nullptr) tracer->start();
  s.run();
  if (tracer != nullptr) tracer->stop();
  p.run_cpu_s = thread_cpu_s() - cpu0;
  p.run_s = seconds_since(t_run);

  // Export: the metrics registry always; with observability on also the
  // Chrome trace and the profiler report; with the analyzer on its report.
  // All into byte-counting sinks. Exports are pure, so a cheap one repeats
  // until kMinExportS has been timed and reports its median.
  bed.finalize_stream();
  std::uint64_t trace_bytes = 0;
  std::vector<double> exports, profs, reports;
  for (double spent = 0; exports.empty() || spent < kMinExportS;) {
    const auto t_export = Clock::now();
    CountingStream metrics_out;
    obs::write_metrics_csv(bed.metrics_registry(), metrics_out.os);
    if (observed(in)) {
      CountingStream trace_out;
      obs::write_chrome_trace(*bed.tracer(), trace_out.os);
      trace_bytes = trace_out.buf.bytes();
      const auto t_prof = Clock::now();
      CountingStream prof_out;
      obs::prof::render(
          obs::prof::profile(obs::prof::input_from_tracer(*bed.tracer())),
          prof_out.os);
      profs.push_back(seconds_since(t_prof));
    }
    if (bed.analyzer() != nullptr) {
      const auto t_report = Clock::now();
      CountingStream report_out;
      bed.analyzer()->render(report_out.os);
      reports.push_back(seconds_since(t_report));
    }
    exports.push_back(seconds_since(t_export));
    spent += exports.back();
  }
  p.export_s = median(exports);
  p.prof_s = median(profs);
  p.report_s = median(reports);

  std::vector<wl::StreamStats> rows = *closed;
  rows.insert(rows.end(), open->begin(), open->end());
  collect(in, bed, rows, p);
  p.det["simcore.smallfn_heap_fallbacks"] =
      double(sim::small_fn_heap_fallbacks() - smallfn_base);
  p.det["obs.trace_bytes"] = double(trace_bytes);
  p.det["obs.stream_windows"] = double(windows);
  p.det["obs.stream_bytes"] = double(stream_out.buf.bytes());

  if (tracer != nullptr) {
    p.traced_run_s = double(tracer->run_ns()) * 1e-9;
    p.buckets_partition = tracer->bucket_sum_ns() == tracer->run_ns();
    p.kernel_s = double(tracer->kernel_ns()) * 1e-9;
    for (int f = 0; f < SpanTracer::kFamilies; ++f) {
      p.family_s[f] =
          double(tracer->family_ns(static_cast<SpanTracer::Family>(f))) * 1e-9;
    }
  }
  return p;
}

/// Construction plus traffic spawn only, torn down without running; the
/// thread CPU time it took.
double setup_only(const Inputs& in) {
  const double t0 = thread_cpu_s();
  sim::Simulation s;
  wl::Testbed bed(s, in.cfg.testbed);
  auto closed = wl::start_streams(bed, in.cfg.streams);
  auto open = wl::start_open_loop(bed, in.cfg.tenants);
  return thread_cpu_s() - t0;
}

/// Runs at least `min_passes` passes, then more while the next one, at the
/// mean pass time so far, is expected to end within `budget_s`.
std::vector<Pass> repeat(double budget_s, int min_passes,
                         const std::function<Pass()>& one) {
  std::vector<Pass> out;
  const auto t0 = Clock::now();
  while (static_cast<int>(out.size()) < min_passes ||
         seconds_since(t0) * double(out.size() + 1) / double(out.size()) <=
             budget_s) {
    out.push_back(one());
  }
  return out;
}

template <typename F>
double median_of(const std::vector<Pass>& ps, F field) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(field(p));
  return median(v);
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Compares the deterministic results of two passes, ignoring keys that
/// start with any prefix in `skip`; returns the first difference or "".
std::string first_difference(const Pass& a, const Pass& b,
                             const std::vector<std::string>& skip = {}) {
  const auto skipped = [&skip](const std::string& k) {
    return std::any_of(skip.begin(), skip.end(), [&k](const std::string& s) {
      return k.starts_with(s);
    });
  };
  for (const auto& [k, v] : a.det) {
    if (skipped(k)) continue;
    const auto it = b.det.find(k);
    if (it == b.det.end() || it->second != v) {
      return k + " (" + fmt(v) + " vs " +
             (it == b.det.end() ? "missing" : fmt(it->second)) + ")";
    }
  }
  return a.det.size() == b.det.size() || !skip.empty() ? "" : "key sets";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
  bool print_inputs = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--spans-out") {
      a.spans_out = value();
    } else if (k == "--print-inputs") {
      a.print_inputs = true;
    } else {
      throw std::invalid_argument("unknown argument '" + k + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// The generated inputs, replayable with bench/run_scenario, followed by
/// one digest line per open-loop tenant's arrival schedule.
void print_inputs(const Inputs& in) {
  std::cout << in.scenario_text;
  for (const auto& t : in.cfg.tenants) {
    const auto sched = wl::arrival_schedule(t);
    std::cout << "# arrivals " << t.name << " n=" << sched.size()
              << " digest=" << digest(sched) << "\n";
  }
}

int run(const Args& args) {
  const std::vector<Inputs> replicas = make_replicas(args.workload, args.seed);
  if (args.print_inputs) {
    for (std::size_t k = 0; k < replicas.size(); ++k) {
      std::cout << "# replica " << k << "\n";
      print_inputs(replicas[k]);
    }
    return 0;
  }
  const Inputs& in = replicas.front();
  const Inputs off = facility_off(in);
  std::vector<std::string> errors;
  const auto gate = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
  // Passes cycle through `period` inputs; each must repeat its first run.
  const auto tally = [&](const std::vector<Pass>& ps, std::size_t period) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      attempted += ps[i].requests;
      failed += ps[i].failed;
      const std::string diff = first_difference(ps[i % period], ps[i]);
      gate(diff.empty(), "pass results differ: " + diff);
    }
  };
  const auto check_outputs = [&](const Pass& p) {
    const auto& d = p.det;
    gate(d.at("workloads.requests_completed") ==
             d.at("workloads.requests_generated"),
         "not every generated request completed");
    gate(d.at("cudart.errors") == 0, "CUDA errors at seed");
    gate(d.at("backend.connections_at_end") == 0,
         "backend connections left open at drain");
    gate(d.at("core.registered_at_end") == 0,
         "scheduler RCBs still registered at drain");
    gate(d.at("analysis.invariant_violations") == 0,
         "protocol invariant violations");
  };

  if (args.trace == 0) {
    // End-to-end: set-ups alone first, on a heap no run has fragmented yet
    // (a seed's passes would leave it in a seed-dependent state), then
    // untraced passes cycling through the replicas for the run budget.
    //
    // Other tenants of a shared host slow the simulator by up to a third,
    // for seconds to minutes at a time, and the reference probe with it.
    // Host times are therefore scaled by the probes run between them:
    // rounds of set-ups, and passes, each bracketed by two probes.
    std::vector<double> setup_rounds;
    std::size_t setup_count = 0;
    double probe = reference_probe_s();
    for (int r = 0; r < kSetupRounds; ++r) {
      std::vector<double> setups;
      for (double spent = 0; setups.size() < kMinSetups ||
                             spent < kMinSetupS / kSetupRounds;) {
        setups.push_back(setup_only(in));
        spent += setups.back();
      }
      const double next_probe = reference_probe_s();
      setup_rounds.push_back(median(setups) * 2 * kProbeRefS /
                             (probe + next_probe));
      setup_count += setups.size();
      probe = next_probe;
    }
    // An untimed warm-up pass: a process's first pass faults in its heap.
    const auto t_warm = Clock::now();
    const Pass warm = run_pass(replicas.front());
    std::size_t next = 0;
    std::vector<double> probes{reference_probe_s()};
    const auto passes =
        repeat(args.seconds - seconds_since(t_warm), int(replicas.size()),
               [&] {
                 Pass p = run_pass(replicas[next++ % replicas.size()]);
                 probes.push_back(reference_probe_s());
                 return p;
               });
    tally(passes, replicas.size());
    const std::string warm_diff = first_difference(warm, passes.front());
    gate(warm_diff.empty(), "pass results differ: " + warm_diff);
    // Host cost: each replica's mean scaled CPU time over its passes,
    // averaged over the replicas.
    double run_s = 0;
    for (std::size_t k = 0; k < replicas.size(); ++k) {
      double sum = 0;
      int n = 0;
      for (std::size_t i = k; i < passes.size(); i += replicas.size(), ++n) {
        sum += passes[i].run_cpu_s * 2 * kProbeRefS /
               (probes[i] + probes[i + 1]);
      }
      run_s += sum / n / double(replicas.size());
    }
    // Virtual-time results pool the first pass of every replica.
    std::vector<sim::SimTime> responses;
    std::vector<double> makespans, jains;
    int requests = 0, lost = 0;
    for (std::size_t k = 0; k < replicas.size(); ++k) {
      const Pass& p = passes[k];
      check_outputs(p);
      responses.insert(responses.end(), p.responses.begin(),
                       p.responses.end());
      makespans.push_back(p.det.at("vt_makespan_s"));
      jains.push_back(p.det.at("vt_jain"));
      requests += p.requests;
      lost += p.failed;
    }
    std::sort(responses.begin(), responses.end());
    // The highest ladder percentile that still has >= 10 samples beyond it.
    double tail_pct = 50, tail = 0;
    int beyond = 0;
    for (const double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      int b = 0;
      const double v = percentile(responses, pct, &b);
      if (b < 10 && pct != 50.0) break;
      tail_pct = pct;
      tail = v;
      beyond = b;
    }
    metrics = {
        {"run_s", run_s, "s"},
        {"setup_s", median(setup_rounds), "s"},
        {"completed_share", double(requests - lost) / double(requests),
         "ratio"},
        {"vt_makespan_s", median(makespans), "s"},
        {"vt_p50_response_s", percentile(responses, 50), "s"},
        {"vt_tail_response_s", tail, "s"},
        {"vt_jain", median(jains), "ratio"},
    };
    std::cout << "# " << args.workload << " seed=" << args.seed << ": "
              << replicas.size() << " replicas, " << passes.size()
              << " passes, " << setup_count << " set-ups, median probe "
              << fmt(median(probes)) << " s; tail = p"
              << fmt(tail_pct) << " of " << responses.size()
              << " responses (" << beyond << " beyond it)\n";
  } else {
    // Per-layer: untraced passes with the workload's facility on, the same
    // inputs with it off, and hook-traced passes. The analyzer owns the
    // single hook slot, so `analyzed` traces its analyzer-off twin.
    const Inputs& traced_in = in.cfg.testbed.analyze ? off : in;
    const double budget = args.seconds / (has_facility(in) ? 3.0 : 2.0);
    // Peak memory is read after the first pass: later passes reuse, or
    // depending on heap fragmentation fail to reuse, freed memory, so the
    // process peak would depend on the pass count.
    double rss_mb = 0;
    std::vector<double> probes;
    const auto base = repeat(budget, 2, [&] {
      Pass p = run_pass(in);
      if (rss_mb == 0) rss_mb = peak_rss_mb();
      probes.push_back(reference_probe_s());
      return p;
    });
    std::vector<Pass> offs;
    if (has_facility(in)) {
      offs = repeat(budget, 3, [&] { return run_pass(off); });
    }
    std::vector<SpanTracer::SpanRecord> spans;
    const auto traced = repeat(budget, 2, [&] {
      SpanTracer tracer(args.spans_out.empty() ? 0 : (1u << 16));
      Pass p = run_pass(traced_in, &tracer);
      if (spans.empty()) spans = tracer.records();
      return p;
    });
    tally(base, 1);
    tally(offs, 1);
    tally(traced, 1);
    check_outputs(base.front());
    const std::vector<Pass>& traced_base = in.cfg.testbed.analyze ? offs : base;
    const std::string diff = first_difference(traced_base.front(), traced.front());
    gate(diff.empty(), "traced pass differs from untraced: " + diff);
    if (in.cfg.testbed.analyze) {
      const std::string adiff =
          first_difference(offs.front(), base.front(), {"analysis."});
      gate(adiff.empty(), "analyzer perturbed the run: " + adiff);
    }
    for (const Pass& p : traced) {
      gate(p.buckets_partition,
           "traced self-time buckets do not partition run_s");
    }

    const double run_s = median_of(base, [](const Pass& p) { return p.run_s; });
    const double off_run_s =
        offs.empty() ? run_s
                     : median_of(offs, [](const Pass& p) { return p.run_s; });
    const double traced_base_run_s =
        in.cfg.testbed.analyze ? off_run_s : run_s;
    // The traced pass whose run time is the median supplies the buckets.
    std::vector<Pass> by_time = traced;
    std::sort(by_time.begin(), by_time.end(), [](const Pass& a, const Pass& b) {
      return a.traced_run_s < b.traced_run_s;
    });
    const Pass& mid = by_time[by_time.size() / 2];
    const auto fam = [&mid](SpanTracer::Family f) { return mid.family_s[f]; };
    const auto& d = base.front().det;
    const auto count = [&d](const std::string& k, const char* unit) {
      return Metric{k, d.at(k), unit};
    };
    metrics = {
        count("simcore.events", "count"),
        {"simcore.events_per_s", d.at("simcore.events") / run_s, "1/s"},
        count("simcore.fiber_spawns", "count"),
        count("simcore.fiber_resumes", "count"),
        count("simcore.queue_pushes", "count"),
        count("simcore.queue_retunes", "count"),
        count("simcore.queue_max_bucket_scan", "count"),
        count("simcore.smallfn_heap_fallbacks", "count"),
        {"simcore.kernel_self_s", mid.kernel_s, "s"},
        {"simcore.callback_self_s", fam(SpanTracer::kCallback), "s"},
        count("core.sched_epochs", "count"),
        count("core.sched_wakes", "count"),
        count("core.sched_sleeps", "count"),
        count("core.wakes_per_epoch", "ratio"),
        count("core.select_rpcs", "count"),
        count("core.unbind_rpcs", "count"),
        count("core.sync_rpcs", "count"),
        count("core.deltas_sent", "count"),
        count("core.deltas_applied", "count"),
        count("core.delta_gap_syncs", "count"),
        count("core.stale_hit_share", "ratio"),
        {"core.agent_self_s", fam(SpanTracer::kAgent), "s"},
        count("backend.wire_packets", "count"),
        count("backend.wire_bytes", "B"),
        count("backend.connections_at_end", "count"),
        {"backend.worker_self_s", fam(SpanTracer::kBackend), "s"},
        count("cudart.errors", "count"),
        count("gpu.kernels", "count"),
        count("gpu.copies", "count"),
        count("gpu.context_switches", "count"),
        count("gpu.compute_busy_share", "ratio"),
        count("workloads.requests_generated", "count"),
        count("workloads.requests_completed", "count"),
        {"workloads.app_self_s", fam(SpanTracer::kApp), "s"},
        count("obs.trace_events", "count"),
        count("obs.trace_bytes", "B"),
        count("obs.stream_windows", "count"),
        count("obs.stream_bytes", "B"),
        {"obs.prof_s", median_of(base, [](const Pass& p) { return p.prof_s; }),
         "s"},
        {"obs.overhead_x", observed(in) ? run_s / off_run_s : 1.0, "x"},
        {"analysis.overhead_x",
         in.cfg.testbed.analyze ? run_s / off_run_s : 1.0, "x"},
        {"analysis.report_s",
         median_of(base, [](const Pass& p) { return p.report_s; }), "s"},
        count("analysis.invariant_violations", "count"),
        count("analysis.logical_races", "count"),
        {"export_s", median_of(base, [](const Pass& p) { return p.export_s; }),
         "s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"bench.other_self_s", fam(SpanTracer::kOther), "s"},
        {"bench.run_cpu_s",
         median_of(base, [](const Pass& p) { return p.run_cpu_s; }), "s"},
        {"bench.probe_s", median(probes), "s"},
        {"bench.traced_run_s", mid.traced_run_s, "s"},
        {"bench.trace_overhead_x", mid.traced_run_s / traced_base_run_s, "x"},
    };
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      if (!out) throw std::runtime_error("cannot write " + args.spans_out);
      perfbench::write_spans_csv(spans, out);
    }
    std::cout << "# " << args.workload << " seed=" << args.seed << ": "
              << base.size() << " untraced, " << offs.size()
              << " facility-off, " << traced.size() << " traced passes; "
              << "median traced pass " << fmt(mid.traced_run_s) << " s\n";
  }

  for (const std::string& e : errors) std::cerr << "check failed: " << e << "\n";
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << fmt(m.value) << " " << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (errors.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << fmt(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "strings_perfbench: " << e.what() << "\n";
    return 2;
  }
}
