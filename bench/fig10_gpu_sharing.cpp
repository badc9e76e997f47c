// Fig. 10: benefits of GPU sharing on the emulated 4-GPU supernode.
//
// Each of the 24 workload pairs A..X runs as two independent exponential
// request streams: the long-running app arrives at NodeA, the short-running
// app at NodeB. Baseline: each stream served by its own single 2-GPU node
// under GRR ("single node GRR"); policies pool all four GPUs.
//
// Paper result (averages over pairs): GRR-Rain 1.60x, GMin-Rain 1.80x,
// GWtMin-Rain 1.82x, GRR-Strings 2.64x, GMin-Strings 2.69x,
// GWtMin-Strings 2.88x; peaks on pairs containing BS or GA (I, K, W).
#include "common.hpp"

#include <cstdio>
#include <map>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig10_gpu_sharing",
               "Fig. 10 (24 pairs, supernode, vs single-node GRR)", opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) {
    pairs = {pairs[0], pairs[8], pairs[10], pairs[22]};  // A, I, K, W
  }
  const int requests_long = opt.quick ? 6 : 10;
  const int requests_short = opt.quick ? 12 : 20;

  auto make_streams = [&](const workloads::WorkloadPair& pair) {
    workloads::ArrivalConfig a;
    a.app = pair.long_app;
    a.origin = 0;
    a.requests = requests_long;
    a.lambda_scale = 0.22;  // overloaded node: bursts spill to the pool
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

  // The single-node-GRR baseline depends only on the app, not on the pair:
  // compute once per app.
  std::map<std::string, double> baseline;
  for (const auto& pair : pairs) {
    for (const auto* role : {&pair.long_app, &pair.short_app}) {
      if (baseline.contains(*role)) continue;
      const workloads::ArrivalConfig s =
          make_streams(pair)[role == &pair.short_app ? 1 : 0];
      baseline[*role] = single_node_grr_baseline({s})[0];
    }
  }

  auto configs = balancing_matrix(workloads::supernode());

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
      cfg.testbed = configs[c].testbed;
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
  report_table("fig10_gpu_sharing", table);

  std::printf("\npaper: GRR-Rain 1.60x  GMin-Rain 1.80x  GWtMin-Rain 1.82x  "
              "GRR-Strings 2.64x  GMin-Strings 2.69x  GWtMin-Strings 2.88x\n");
  return 0;
}
