// Microbenchmarks (google-benchmark) of the infrastructure itself: the
// discrete-event kernel, packet marshalling, the timed channel, policy
// decision costs, and the device fluid model. These quantify simulator
// overhead (wall time per simulated operation), not paper results.
//
// Besides the google-benchmark arms, running with STRINGS_BENCH_REPORT set
// records fixed-size event-loop throughput entries (wall_s, events_per_sec)
// into the perf report, which tools/bench_gate compares warn-only across
// kernel changes (the CI perf-smoke job does exactly this).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "core/tables.hpp"
#include "gpu/gpu_device.hpp"
#include "policies/balancing.hpp"
#include "policies/device_policies.hpp"
#include "rpc/channel.hpp"
#include "rpc/marshal.hpp"
#include "simcore/small_fn.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace strings;

// --- Event-loop throughput kernels (shared by the google-benchmark arms
// and the STRINGS_BENCH_REPORT entries) ----------------------------------

// `chains` self-rescheduling events round-robin until `total` events have
// fired: pure schedule/pop cost, queue depth stays at `chains`.
struct EventChain {
  sim::Simulation* sim = nullptr;
  long remaining = 0;
  long* fired = nullptr;
  void fire() {
    ++*fired;
    if (--remaining > 0) {
      sim->schedule(sim::usec(1), [this] { fire(); });
    }
  }
};

long run_event_chains(int chains, long total) {
  sim::Simulation sim;
  long fired = 0;
  std::vector<EventChain> cs(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    cs[static_cast<std::size_t>(i)] = {&sim, total / chains, &fired};
    sim.schedule(sim::usec(i), [&cs, i] { cs[static_cast<std::size_t>(i)].fire(); });
  }
  sim.run();
  return fired;
}

// The open-loop churn shape: six timers seconds out stretch the event
// horizon while `chains` self-rescheduling events, each re-armed 0-40 us
// ahead (an LCG, so pushes land out of order), carry the work. Measures
// the queue under a skewed horizon, where a width taken from the whole
// span would put every near event in one bucket.
struct JitterChain {
  sim::Simulation* sim = nullptr;
  long remaining = 0;
  long* fired = nullptr;
  std::uint64_t state = 0;
  void fire() {
    ++*fired;
    if (--remaining > 0) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto delay =
          static_cast<sim::SimTime>((state >> 33) % sim::usec(40));
      sim->schedule(delay, [this] { fire(); });
    }
  }
};

long run_skewed_event_loop(int chains, long total) {
  sim::Simulation sim;
  long fired = 0;
  for (int i = 1; i <= 6; ++i) sim.schedule(sim::sec(2) * i, [] {});
  std::vector<JitterChain> cs(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    cs[static_cast<std::size_t>(i)] = {&sim, total / chains, &fired,
                                       static_cast<std::uint64_t>(i)};
    sim.schedule(0, [&cs, i] { cs[static_cast<std::size_t>(i)].fire(); });
  }
  sim.run();
  return fired;
}

// `procs` processes each parking and resuming `waits` times: one fiber (or,
// before the fiber kernel, thread-baton) round trip per wait.
long run_park_resume(int procs, int waits) {
  sim::Simulation sim;
  for (int p = 0; p < procs; ++p) {
    sim.spawn("p" + std::to_string(p), [&sim, waits] {
      for (int i = 0; i < waits; ++i) sim.wait_for(sim::usec(1));
    });
  }
  sim.run();
  return static_cast<long>(procs) * waits;
}

// Two processes exchanging `rounds` message pairs through two mailboxes.
long run_mailbox_pingpong(int rounds) {
  sim::Simulation sim;
  sim::Mailbox<int> to_b(sim), to_a(sim);
  sim.spawn("ping", [&] {
    for (int i = 0; i < rounds; ++i) {
      to_b.send(i);
      (void)to_a.receive();
    }
  });
  sim.spawn("pong", [&] {
    for (int i = 0; i < rounds; ++i) {
      (void)to_b.receive();
      to_a.send(i);
    }
  });
  sim.run();
  return 2L * rounds;
}

void BM_SimScheduleAndRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      sim.schedule(sim::usec(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimScheduleAndRun)->Arg(1000)->Arg(10000);

void BM_SimProcessSwitch(benchmark::State& state) {
  // Cost of one process suspend/resume round trip (two condvar handoffs).
  const int waits = 1000;
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn("p", [&] {
      for (int i = 0; i < waits; ++i) sim.wait_for(1);
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * waits);
}
BENCHMARK(BM_SimProcessSwitch);

void BM_EventLoopThroughput(benchmark::State& state) {
  // Steady-state schedule/fire cost with a fixed queue depth.
  const long events = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_event_chains(/*chains=*/256, events));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoopThroughput)->Arg(100000);

void BM_ProcessParkResume(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_park_resume(procs, /*waits=*/100));
  }
  state.SetItemsProcessed(state.iterations() * procs * 100);
}
BENCHMARK(BM_ProcessParkResume)->Arg(16)->Arg(256);

void BM_MailboxPingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_mailbox_pingpong(rounds));
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}
BENCHMARK(BM_MailboxPingPong)->Arg(10000);

void BM_MarshalCudaCall(benchmark::State& state) {
  for (auto _ : state) {
    rpc::Marshal m;
    m.put_u64(0xDEADBEEF);        // device pointer
    m.put_u64(1 << 20);           // bytes
    m.put_u32(1);                 // kind
    rpc::Unmarshal u(m.buffer());
    benchmark::DoNotOptimize(u.get_u64());
    benchmark::DoNotOptimize(u.get_u64());
    benchmark::DoNotOptimize(u.get_u32());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MarshalCudaCall);

void BM_ChannelRoundTrip(benchmark::State& state) {
  const int msgs = 256;
  for (auto _ : state) {
    sim::Simulation sim;
    rpc::DuplexChannel ch(sim, rpc::LinkModel::shared_memory());
    sim.spawn_daemon("server", [&] {
      while (true) {
        rpc::Packet p = ch.request.receive();
        rpc::Packet r;
        r.seq = p.seq;
        ch.response.send(std::move(r));
      }
    });
    sim.spawn("client", [&] {
      rpc::RpcClient client(ch);
      for (int i = 0; i < msgs; ++i) {
        client.call(rpc::CallId::kLaunch, rpc::Marshal{});
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_ChannelRoundTrip);

void BM_BalancingPolicySelect(benchmark::State& state) {
  core::GMap gmap;
  gmap.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  gmap.add_node(1, {gpu::quadro4000(), gpu::tesla_c2070()});
  core::DstSnapshot view;
  view.dst = core::DeviceStatusTable(gmap);
  view.bound_types.resize(4);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 8; ++i) {
      view.bound_types[static_cast<std::size_t>(g)].push_back("MC");
    }
  }
  core::FeedbackRecord rec;
  rec.app_type = "MC";
  rec.exec_time_s = 5;
  rec.gpu_util = 0.6;
  rec.mem_bw_gbps = 3.0;
  view.sft.update(rec);
  auto policy = policies::make_balancing_policy("MBF");
  policies::BalanceInput in;
  in.gmap = &gmap;
  in.view = &view;
  in.app_type = "MC";
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BalancingPolicySelect);

void BM_DevicePolicyPickAwake(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<policies::RcbSnapshot> rcb;
  for (int i = 0; i < n; ++i) {
    policies::RcbSnapshot s;
    s.key = static_cast<std::uint64_t>(i);
    s.total_service = sim::msec(i * 7 % 50);
    s.cgs = i * 13 % 29;
    s.phase = static_cast<policies::Phase>(i % 4);
    s.backlogged = true;
    rcb.push_back(std::move(s));
  }
  auto policy = policies::make_device_policy("PS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->pick_awake(rcb));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DevicePolicyPickAwake)->Arg(8)->Arg(64);

void BM_FluidModelContention(benchmark::State& state) {
  // Many concurrent kernels forcing frequent rate recomputation.
  const int kernels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    auto props = gpu::tesla_c2050();
    props.concurrent_kernels = 64;
    gpu::GpuDevice dev(sim, 0, props);
    sim.spawn("submit", [&] {
      std::vector<gpu::GpuDevice::OpRef> ops;
      for (int i = 0; i < kernels; ++i) {
        ops.push_back(dev.submit_kernel(
            1, gpu::KernelDesc{sim::msec(1 + i % 7), 0.2, 10.0}));
        sim.wait_for(sim::usec(100));
      }
      for (auto& op : ops) dev.wait(op);
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * kernels);
}
BENCHMARK(BM_FluidModelContention)->Arg(16)->Arg(64);

// Runs `fn` once and records "<events/sec, wall_s>" under `label` in the
// STRINGS_BENCH_REPORT file. Fixed work sizes keep entries comparable
// across runs and kernels.
template <typename Fn>
void record_throughput_entry(const char* label, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  const long events = fn();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  char value[128];
  std::snprintf(value, sizeof(value),
                "{\"wall_s\":%.6f,\"events_per_sec\":%.0f}", wall.count(),
                static_cast<double>(events) / wall.count());
  bench::record_bench_entry(label, value);
  std::printf("%-24s %10.6f s   %12.0f events/sec\n", label, wall.count(),
              static_cast<double>(events) / wall.count());
}

void record_event_loop_report() {
  if (std::getenv("STRINGS_BENCH_REPORT") == nullptr) return;
  std::printf("\n-- event-loop throughput (STRINGS_BENCH_REPORT entries) --\n");
  record_throughput_entry("event_loop",
                          [] { return run_event_chains(256, 2'000'000); });
  record_throughput_entry("event_loop_skewed",
                          [] { return run_skewed_event_loop(384, 2'000'000); });
  record_throughput_entry("park_resume",
                          [] { return run_park_resume(256, 2'000); });
  record_throughput_entry("mailbox_pingpong",
                          [] { return run_mailbox_pingpong(200'000); });
}

// SmallFn inline-storage assertion: the packet-delivery hot path (channel
// round trips through timers, mailboxes and fiber wakeups) must never push
// a callback to the heap — sim/smallfn_heap_fallbacks counts every miss.
// Recorded info-only in the report, but a miss fails the bench run itself:
// a fallback means some kernel lambda outgrew the inline buffer and the
// event hot path silently picked up a malloc.
int record_smallfn_report() {
  if (std::getenv("STRINGS_BENCH_REPORT") == nullptr) return 0;
  const std::uint64_t before = sim::small_fn_heap_fallbacks();
  sim::Simulation sim;
  rpc::DuplexChannel ch(sim, rpc::LinkModel::shared_memory());
  sim.spawn_daemon("server", [&] {
    while (true) {
      rpc::Packet p = ch.request.receive();
      rpc::Packet r;
      r.seq = p.seq;
      ch.response.send(std::move(r));
    }
  });
  sim.spawn("client", [&] {
    rpc::RpcClient client(ch);
    for (int i = 0; i < 512; ++i) {
      client.call(rpc::CallId::kLaunch, rpc::Marshal{});
    }
  });
  sim.run();
  const std::uint64_t fallbacks = sim::small_fn_heap_fallbacks() - before;
  char value[64];
  std::snprintf(value, sizeof(value), "{\"heap_fallbacks\":%llu}",
                static_cast<unsigned long long>(fallbacks));
  bench::record_bench_entry("sim/smallfn_heap_fallbacks", value);
  std::printf("%-24s %10llu heap fallbacks (must be 0)\n",
              "smallfn_assert", static_cast<unsigned long long>(fallbacks));
  if (fallbacks != 0) {
    std::fprintf(stderr,
                 "smallfn_assert: %llu SmallFn heap fallbacks on the packet "
                 "hot path (inline capacity regressed)\n",
                 static_cast<unsigned long long>(fallbacks));
    return 1;
  }
  return 0;
}

}  // namespace

// BENCHMARK_MAIN, plus the perf-report arm: google-benchmark owns timing
// for human-facing output, while the report entries come from one fixed-size
// deterministic pass so bench_gate compares like against like.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_event_loop_report();
  return record_smallfn_report();
}
