// End-to-end integration tests: application -> interposer -> affinity
// mapper -> RPC -> backend worker -> context packer -> GPU scheduler ->
// simulated CUDA runtime -> simulated device, across all execution modes.
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "workloads/app.hpp"
#include "workloads/profiles.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace strings::workloads {
namespace {

using sim::msec;
using sim::sec;
using sim::SimTime;

AppProfile tiny_app(const std::string& name, int iters = 2,
                    SimTime kernel = msec(20), double occ = 0.5,
                    double bw = 10.0, std::size_t h2d = 6'000'000) {
  AppProfile p;
  p.name = name;
  p.full_name = name;
  p.long_running = false;
  p.iterations = iters;
  p.cpu_per_iter = msec(5);
  p.h2d_bytes_per_iter = h2d;
  p.d2h_bytes_per_iter = h2d / 4;
  p.kernels_per_iter = 2;
  p.kernel = gpu::KernelDesc{kernel, occ, bw};
  p.alloc_bytes = 8'000'000;
  return p;
}

TEST(Profiles, TableOneShape) {
  EXPECT_EQ(all_profiles().size(), 10u);
  EXPECT_EQ(group_a().size(), 6u);
  EXPECT_EQ(group_b().size(), 4u);
  EXPECT_EQ(workload_pairs().size(), 24u);
  EXPECT_EQ(workload_pairs()[0].label, 'A');
  EXPECT_EQ(workload_pairs()[0].long_app, "DC");
  EXPECT_EQ(workload_pairs()[0].short_app, "BS");
  EXPECT_EQ(workload_pairs()[1].short_app, "MC");
  EXPECT_EQ(workload_pairs()[23].label, 'X');
  EXPECT_EQ(workload_pairs()[23].long_app, "EV");
  EXPECT_EQ(workload_pairs()[23].short_app, "SN");
  EXPECT_THROW(profile("ZZ"), std::invalid_argument);
}

TEST(Profiles, GroupRuntimesMatchPaperBands) {
  for (const auto& name : group_a()) {
    const SimTime t = standalone_runtime(profile(name));
    EXPECT_GE(t, sec(10)) << name;
    EXPECT_LE(t, sec(55)) << name;
    EXPECT_TRUE(profile(name).long_running);
  }
  for (const auto& name : group_b()) {
    const SimTime t = standalone_runtime(profile(name));
    EXPECT_LT(t, sec(10)) << name;
    EXPECT_FALSE(profile(name).long_running);
  }
  // BS has the least total execution time of Group B (paper §V-D).
  for (const auto& name : group_b()) {
    if (name == "BS") continue;
    EXPECT_LE(standalone_runtime(profile("BS")),
              standalone_runtime(profile(name)));
  }
}

TEST(Testbed, BaselineHonorsProgrammedDevice) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kCudaBaseline;
  cfg.nodes = small_server();
  Testbed bed(sim, cfg);
  const AppProfile p = tiny_app("T");
  sim.spawn("app", [&] {
    backend::AppDescriptor desc;
    desc.app_type = "T";
    auto api = bed.make_api(desc);
    run_app(sim, *api, p, /*programmed_device=*/1);
  });
  sim.run();
  EXPECT_GT(bed.device(1).counters().kernels_completed, 0);
  EXPECT_EQ(bed.device(0).counters().kernels_completed, 0);
}

TEST(Testbed, StringsOverridesDeviceSelection) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = small_server();
  cfg.balancing_policy = "GMin";
  Testbed bed(sim, cfg);
  const AppProfile p = tiny_app("T");
  // Both apps program device 0, but GMin spreads them over both GPUs.
  for (int a = 0; a < 2; ++a) {
    sim.spawn("app" + std::to_string(a), [&bed, &sim, p] {
      backend::AppDescriptor desc;
      desc.app_type = "T";
      auto api = bed.make_api(desc);
      const AppRunResult r = run_app(sim, *api, p, /*programmed_device=*/0);
      EXPECT_EQ(r.errors, 0);
    });
  }
  sim.run();
  EXPECT_GT(bed.device(0).counters().kernels_completed, 0);
  EXPECT_GT(bed.device(1).counters().kernels_completed, 0);
}

TEST(Testbed, FeedbackFlowsBackToMapper) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = small_server();
  cfg.feedback_policy = "MBF";
  Testbed bed(sim, cfg);
  const AppProfile p = tiny_app("FB");
  sim.spawn("app", [&] {
    backend::AppDescriptor desc;
    desc.app_type = "FB";
    auto api = bed.make_api(desc);
    run_app(sim, *api, p);
  });
  sim.run();
  // The cudaThreadExit piggyback reached the SFT via the Policy Arbiter.
  auto rec = bed.mapper().sft().lookup("FB");
  ASSERT_TRUE(rec.has_value());
  EXPECT_GT(rec->gpu_time_s, 0.0);
  EXPECT_GT(rec->mem_bw_gbps, 0.0);
  EXPECT_STREQ(bed.mapper().active_policy_name("FB"), "MBF");
  // Binding released.
  for (const auto& row : bed.mapper().dst().rows()) {
    EXPECT_EQ(row.load, 0);
  }
}

TEST(Testbed, SupernodeSpansBothNodes) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = supernode();
  cfg.balancing_policy = "GRR";
  Testbed bed(sim, cfg);
  EXPECT_EQ(bed.gpu_count(), 4);
  EXPECT_EQ(bed.node_count(), 2);
  const AppProfile p = tiny_app("T", 1);
  int errors = 0;
  for (int a = 0; a < 4; ++a) {
    sim.spawn("app" + std::to_string(a), [&bed, &sim, &errors, p] {
      backend::AppDescriptor desc;
      desc.app_type = "T";
      desc.origin_node = 0;
      auto api = bed.make_api(desc);
      errors += run_app(sim, *api, p).errors;
    });
  }
  sim.run();
  EXPECT_EQ(errors, 0);
  // GRR touched all four GPUs, including remote ones.
  for (core::Gid g = 0; g < 4; ++g) {
    EXPECT_GT(bed.device(g).counters().kernels_completed, 0) << "gid " << g;
  }
}

TEST(Testbed, RemoteBindingCostsMoreThanLocal) {
  // Two-node cluster where only node 0 has GPUs: a request originating on
  // node 1 must remote its GPU component over the network link and pays
  // latency + bandwidth for it.
  auto run_one = [](core::NodeId origin) {
    sim::Simulation sim;
    TestbedConfig cfg;
    cfg.mode = Mode::kStrings;
    cfg.nodes = {paper_node_a(), {}};
    Testbed bed(sim, cfg);
    SimTime elapsed = 0;
    const AppProfile p = tiny_app("T", 2, msec(5), 0.5, 1.0, 30'000'000);
    sim.spawn("app", [&] {
      backend::AppDescriptor desc;
      desc.app_type = "T";
      desc.origin_node = origin;
      auto api = bed.make_api(desc);
      elapsed = run_app(sim, *api, p).elapsed();
    });
    sim.run();
    return elapsed;
  };
  const SimTime local = run_one(0);
  const SimTime remote = run_one(1);
  EXPECT_LT(local, remote);
}

class ModeParamTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ModeParamTest, ServiceScenarioCompletesAllRequests) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = GetParam();
  cfg.nodes = small_server();
  Testbed bed(sim, cfg);
  ArrivalConfig a;
  a.app = "GA";  // short app: fast test
  a.requests = 6;
  a.lambda_scale = 0.5;
  a.seed = 7;
  auto stats = run_streams(bed, {a});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].completed, 6);
  EXPECT_EQ(stats[0].errors, 0);
  EXPECT_GT(stats[0].mean_response_s(), 0.0);
  EXPECT_GE(stats[0].mean_response_s(), stats[0].mean_service_s());
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeParamTest,
                         ::testing::Values(Mode::kCudaBaseline, Mode::kRain,
                                           Mode::kStrings, Mode::kDesign2));

TEST(Integration, StringsBeatsBaselineUnderContention) {
  // The headline mechanism: two GPUs, a stream of requests all programmed
  // to device 0. The baseline serializes contexts on one GPU; Strings
  // load-balances and packs contexts.
  auto mean_response = [](Mode mode) {
    sim::Simulation sim;
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.nodes = small_server();
    cfg.balancing_policy = "GMin";
    Testbed bed(sim, cfg);
    ArrivalConfig a;
    a.app = "MC";
    a.requests = 8;
    a.lambda_scale = 0.6;
    a.seed = 42;
    auto stats = run_streams(bed, {a});
    EXPECT_EQ(stats[0].completed, 8);
    return stats[0].mean_response_s();
  };
  const double baseline = mean_response(Mode::kCudaBaseline);
  const double rain = mean_response(Mode::kRain);
  const double strings = mean_response(Mode::kStrings);
  EXPECT_LT(strings, baseline);
  EXPECT_LT(rain, baseline);
  EXPECT_LT(strings, rain);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulation sim;
    TestbedConfig cfg;
    cfg.mode = Mode::kStrings;
    cfg.nodes = small_server();
    Testbed bed(sim, cfg);
    ArrivalConfig a;
    a.app = "GA";
    a.requests = 5;
    a.seed = 3;
    auto stats = run_streams(bed, {a});
    return stats[0].total_response;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, TwoStreamsShareTheServer) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = small_server();
  cfg.balancing_policy = "GMin";
  Testbed bed(sim, cfg);
  ArrivalConfig a;
  a.app = "GA";
  a.requests = 4;
  a.seed = 1;
  ArrivalConfig b;
  b.app = "BS";
  b.requests = 4;
  b.seed = 2;
  auto stats = run_streams(bed, {a, b});
  EXPECT_EQ(stats[0].completed, 4);
  EXPECT_EQ(stats[1].completed, 4);
  EXPECT_EQ(stats[0].errors + stats[1].errors, 0);
}


// Protocol sequences observed through the components' own counters and the
// analyzer: the Request Manager's three-way handshake (paper Fig. 7a), the
// Policy Arbiter's dynamic switch, and TFS dispatcher arbitration. (Suite
// and case names are kept from when these read a string event log.)
struct TracedRun {
  explicit TracedRun(int requests = 2) {
    TestbedConfig cfg;
    cfg.mode = Mode::kStrings;
    cfg.nodes = small_server();
    cfg.balancing_policy = "GWtMin";
    cfg.device_policy = "TFS";
    cfg.feedback_policy = "MBF";
    cfg.analyze = true;
    bed = std::make_unique<Testbed>(sim, cfg);
    ArrivalConfig a;
    a.app = "BS";
    a.requests = requests;
    a.lambda_scale = 1.5;  // sequential: feedback lands between requests
    a.seed = 7;
    stats = run_streams(*bed, {a});
  }
  sim::Simulation sim;
  std::unique_ptr<Testbed> bed;
  std::vector<StreamStats> stats;
};

TEST(TracedStack, HandshakeSequencePerRegistration) {
  TracedRun run;
  ASSERT_EQ(run.stats[0].completed, 2);
  // Every registration went register -> signal id -> ack -> unregister, and
  // no kernel was dispatched before its handshake was acked.
  const analysis::Report& report = run.bed->analyzer()->report();
  EXPECT_FALSE(report.has("INV-RCB-1")) << report.invariant_violations();
  EXPECT_FALSE(report.has("INV-HSK-1")) << report.invariant_violations();
}

TEST(TracedStack, MapperLogsSelectionsAndArbiterSwitch) {
  TracedRun run(/*requests=*/3);
  // The first selection used the static policy; the Arbiter switched to MBF
  // after the first feedback record, so the later two used feedback.
  EXPECT_EQ(run.bed->mapper().static_selections(), 1);
  EXPECT_EQ(run.bed->mapper().feedback_selections(), 2);
}

TEST(TracedStack, TfsDispatcherLogsWakeSleepTransitions) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = {{gpu::tesla_c2050()}};
  cfg.device_policy = "TFS";
  Testbed bed(sim, cfg);
  ArrivalConfig a;
  a.app = "MC";
  a.requests = 3;
  a.lambda_scale = 0.05;  // pile up: TFS must arbitrate
  a.server_threads = 3;
  a.seed = 3;
  run_streams(bed, {a});
  const core::GpuScheduler& sched = bed.daemon(0).scheduler(0);
  EXPECT_GT(sched.dispatcher_wakes(), 0);
  EXPECT_GT(sched.dispatcher_sleeps(), 0);
}

}  // namespace
}  // namespace strings::workloads
