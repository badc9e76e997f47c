// Fig. 14: feedback-based load balancing (RTF, GUF) on the supernode. The
// Policy Arbiter starts every app type on GWtMin and switches to the
// feedback policy once the first Feedback Engine record for that type
// arrives (dynamic policy switching).
//
// Paper result (averages): RTF-Rain 2.22x, GUF-Rain 2.51x, RTF-Strings
// 3.23x, GUF-Strings 3.96x; GUF wins on pairs mixing very high (DC, HI,
// MM, BO) and very low (GA, SN, BS) GPU utilization.
#include "common.hpp"

#include <cstdio>
#include <map>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig14_feedback",
               "Fig. 14 (RTF/GUF feedback balancing vs single-node GRR)",
               opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) pairs = {pairs[2], pairs[9], pairs[16], pairs[23]};
  const int requests_long = opt.quick ? 6 : 10;
  const int requests_short = opt.quick ? 12 : 20;

  struct Config {
    const char* label;
    workloads::Mode mode;
    const char* feedback;
  };
  const std::vector<Config> configs = {
      {"RTF-Rain", workloads::Mode::kRain, "RTF"},
      {"RTF-Strings", workloads::Mode::kStrings, "RTF"},
      {"GUF-Rain", workloads::Mode::kRain, "GUF"},
      {"GUF-Strings", workloads::Mode::kStrings, "GUF"},
  };

  auto make_streams = [&](const workloads::WorkloadPair& pair) {
    workloads::ArrivalConfig a;
    a.app = pair.long_app;
    a.origin = 0;
    a.requests = requests_long;
    a.lambda_scale = 0.22;
    a.server_threads = 8;
    a.seed = 11;
    a.tenant = "tenantA";
    workloads::ArrivalConfig b;
    b.app = pair.short_app;
    b.origin = 1;
    b.requests = requests_short;
    b.lambda_scale = 0.22;
    b.server_threads = 8;
    b.seed = 23;
    b.tenant = "tenantB";
    return std::vector<workloads::ArrivalConfig>{a, b};
  };

  std::map<std::string, double> baseline;
  for (const auto& pair : pairs) {
    const auto streams = make_streams(pair);
    if (!baseline.contains(pair.long_app)) {
      baseline[pair.long_app] = single_node_grr_baseline({streams[0]})[0];
    }
    if (!baseline.contains(pair.short_app)) {
      baseline[pair.short_app] = single_node_grr_baseline({streams[1]})[0];
    }
  }

  std::vector<std::string> headers{"Pair", "Mix"};
  for (const auto& c : configs) headers.push_back(c.label);
  metrics::Table table(headers);
  std::vector<std::vector<double>> speedups(configs.size());

  for (const auto& pair : pairs) {
    const auto streams = make_streams(pair);
    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = configs[c].mode;
      cfg.testbed.nodes = workloads::supernode();
      cfg.testbed.balancing_policy = "GWtMin";  // until feedback exists
      cfg.testbed.feedback_policy = configs[c].feedback;  // then it switches
      cfg.streams = streams;
      const auto out = run(configs[c].label, cfg);
      const double ws = metrics::weighted_speedup(
          {baseline[pair.long_app], baseline[pair.short_app]},
          {mean_response(out, 0), mean_response(out, 1)});
      speedups[c].push_back(ws);
      row.push_back(metrics::Table::fmt(ws) + "x");
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"avg", "-"};
  for (const auto& s : speedups) {
    avg.push_back(metrics::Table::fmt(metrics::mean(s)) + "x");
  }
  table.add_row(std::move(avg));
  report_table("fig14_feedback", table);

  std::printf("\npaper: RTF-Rain 2.22x  GUF-Rain 2.51x  RTF-Strings 3.23x  "
              "GUF-Strings 3.96x\n");
  return 0;
}
