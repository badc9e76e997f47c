// obs::TimeSeries — the windowed-aggregation contract: tumbling windows
// over the cumulative Registry, delta/rate reducers, window-local
// histogram quantiles that agree with the whole-run Registry math, a
// bounded retention ring, and a deterministic JSONL rendering. The handle
// layout TimeSeries closes over is checked against a reference close built
// from Registry::collect() (the algorithm it replaced).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "simcore/sim_time.hpp"

namespace strings::obs {
namespace {

TimeSeries::Config cfg(sim::SimTime window, std::size_t retain = 256) {
  TimeSeries::Config c;
  c.window = window;
  c.retain = retain;
  return c;
}

TEST(TimeSeries, EmptyWindowStillCloses) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10));
  EXPECT_EQ(w.index, 0u);
  EXPECT_EQ(w.start, 0);
  EXPECT_EQ(w.end, sim::msec(10));
  EXPECT_FALSE(w.partial);
  EXPECT_TRUE(w.series.empty());
  EXPECT_TRUE(w.hists.empty());
  EXPECT_EQ(ts.windows_closed(), 1u);
  EXPECT_EQ(ts.last_end(), sim::msec(10));
}

TEST(TimeSeries, SingleSampleCounterDeltaAndRate) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("a/b").inc(3);
  const Window& w1 = ts.close_window(reg, sim::msec(10));
  ASSERT_NE(w1.find_series("a/b"), nullptr);
  EXPECT_DOUBLE_EQ(w1.find_series("a/b")->value, 3.0);
  // First sighting: the whole cumulative value is this window's delta.
  EXPECT_DOUBLE_EQ(w1.find_series("a/b")->delta, 3.0);

  reg.counter("a/b").inc(2);
  const Window& w2 = ts.close_window(reg, sim::msec(20));
  EXPECT_DOUBLE_EQ(w2.find_series("a/b")->value, 5.0);
  EXPECT_DOUBLE_EQ(w2.find_series("a/b")->delta, 2.0);

  // Reducers over the closed window.
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "value"), 5.0);
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "delta"), 2.0);
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "rate"), 2.0 / 0.01);
  EXPECT_FALSE(reduce_window(w2, "a/b", "p99").has_value());  // not a hist
  EXPECT_FALSE(reduce_window(w2, "missing", "value").has_value());
}

TEST(TimeSeries, FlatSeriesStaysVisibleWithZeroDelta) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("flat").inc(7);
  ts.close_window(reg, sim::msec(10));
  const Window& w2 = ts.close_window(reg, sim::msec(20));
  // Rule evaluation must still see the series even when nothing changed.
  ASSERT_NE(w2.find_series("flat"), nullptr);
  EXPECT_DOUBLE_EQ(w2.find_series("flat")->value, 7.0);
  EXPECT_DOUBLE_EQ(w2.find_series("flat")->delta, 0.0);
}

TEST(TimeSeries, PartialWindowAtRunEnd) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("c").inc();
  ts.close_window(reg, sim::msec(10));
  reg.counter("c").inc();
  // The run drained 3 ms into the next window: close it partial.
  const Window& w = ts.close_window(reg, sim::msec(13), /*partial=*/true);
  EXPECT_TRUE(w.partial);
  EXPECT_EQ(w.start, sim::msec(10));
  EXPECT_EQ(w.end, sim::msec(13));
  EXPECT_DOUBLE_EQ(w.find_series("c")->delta, 1.0);
  // Rate uses the actual (short) window span, not the configured width.
  EXPECT_DOUBLE_EQ(*reduce_window(w, "c", "rate"), 1.0 / 0.003);
}

TEST(TimeSeries, WindowExactlyAtRunEndIsFull) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10), /*partial=*/false);
  EXPECT_FALSE(w.partial);
  EXPECT_DOUBLE_EQ(w.seconds(), 0.01);
}

TEST(TimeSeries, WindowQuantilesMatchRegistryHistogramMath) {
  Registry reg;
  auto& h = reg.histogram("lat", default_latency_buckets_ms());
  // All observations land in one window, so the window-local quantile must
  // equal histogram_quantile over the Registry's own cumulative buckets.
  for (double v : {0.2, 0.7, 3.0, 8.0, 40.0, 40.0, 90.0, 600.0}) h.observe(v);

  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10));
  ASSERT_NE(w.find_hist("lat"), nullptr);
  const WindowHistogram& wh = *w.find_hist("lat");
  EXPECT_EQ(wh.count, h.count());
  EXPECT_DOUBLE_EQ(wh.sum, h.sum());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(wh.quantile(q),
                     histogram_quantile(h.bounds(), h.cumulative(), q))
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(*reduce_window(w, "lat", "mean"), h.sum() / h.count());
  // delta/rate on a histogram name read the window observation count.
  EXPECT_DOUBLE_EQ(*reduce_window(w, "lat", "delta"), double(h.count()));
}

TEST(TimeSeries, HistogramWindowsAreDeltas) {
  Registry reg;
  auto& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(50.0);
  TimeSeries ts(cfg(sim::msec(10)));
  ts.close_window(reg, sim::msec(10));

  h.observe(5.0);  // the only observation of window 2
  const Window& w2 = ts.close_window(reg, sim::msec(20));
  const WindowHistogram& wh = *w2.find_hist("lat");
  EXPECT_EQ(wh.count, 1);
  EXPECT_DOUBLE_EQ(wh.sum, 5.0);
  ASSERT_EQ(wh.cum.size(), 4u);  // 3 finite bounds + inf
  EXPECT_EQ(wh.cum[0], 0);       // <= 1
  EXPECT_EQ(wh.cum[1], 1);       // <= 10
  EXPECT_EQ(wh.cum[3], 1);

  // A quiet histogram disappears from subsequent windows entirely.
  const Window& w3 = ts.close_window(reg, sim::msec(30));
  EXPECT_EQ(w3.find_hist("lat"), nullptr);
  EXPECT_FALSE(reduce_window(w3, "lat", "p99").has_value());
}

TEST(TimeSeries, QuantileClampsToLastFiniteBound) {
  // Observations past the top bucket have no upper edge to interpolate to.
  std::vector<double> bounds{1.0, 10.0};
  std::vector<std::int64_t> cum{0, 0, 5};  // all 5 beyond 10
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cum, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cum, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);  // empty
}

TEST(TimeSeries, RetentionRingIsBounded) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(1), /*retain=*/4));
  for (int i = 1; i <= 10; ++i) ts.close_window(reg, sim::msec(i));
  EXPECT_EQ(ts.windows_closed(), 10u);
  ASSERT_EQ(ts.windows().size(), 4u);
  EXPECT_EQ(ts.windows().front().index, 6u);  // oldest retained
  EXPECT_EQ(ts.windows().back().index, 9u);
}

TEST(TimeSeries, ReducerNameValidation) {
  for (const char* r : {"value", "delta", "rate", "mean", "p50", "p95", "p99"})
    EXPECT_TRUE(is_valid_reducer(r)) << r;
  EXPECT_FALSE(is_valid_reducer("p42"));
  EXPECT_FALSE(is_valid_reducer(""));
  EXPECT_FALSE(is_valid_reducer("max"));
}

TEST(TimeSeries, StreamLineIsDeterministicAndOmitsFlatSeries) {
  auto render = [] {
    Registry reg;
    reg.counter("x/changed").inc(4);
    reg.counter("x/flat").inc(1);
    auto& h = reg.histogram("lat", {1.0, 10.0});
    TimeSeries ts(cfg(sim::msec(10)));
    ts.close_window(reg, sim::msec(10));
    reg.counter("x/changed").inc(2);
    h.observe(3.0);
    std::ostringstream os;
    write_stream_line(os, ts.close_window(reg, sim::msec(20)));
    return os.str();
  };
  const std::string a = render();
  EXPECT_EQ(a, render());  // byte-identical across repeated runs
  EXPECT_NE(a.find("\"schema\":\"strings.stream.v1\""), std::string::npos);
  EXPECT_NE(a.find("x/changed"), std::string::npos);
  // x/flat did not move this window, so the line omits it.
  EXPECT_EQ(a.find("x/flat"), std::string::npos);
  EXPECT_NE(a.find("\"lat\""), std::string::npos);
  EXPECT_EQ(a.back(), '\n');
  EXPECT_EQ(a.find('\n'), a.size() - 1);  // exactly one line
}

TEST(TimeSeries, NonFiniteGaugeRendersAsNull) {
  Registry reg;
  reg.gauge_fn("bad", [] { return std::nan(""); });
  TimeSeries ts(cfg(sim::msec(10)));
  std::ostringstream os;
  write_stream_line(os, ts.close_window(reg, sim::msec(10)));
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_NE(os.str().find("null"), std::string::npos);
}

// ---- the collect()-based reference close ----

struct RefHist {
  std::vector<double> bounds;
  std::vector<std::int64_t> cum;
  std::int64_t count = 0;
  double sum = 0.0;
};

struct RefWindow {
  std::map<std::string, SeriesPoint> series;
  std::map<std::string, RefHist> hists;
};

/// Closes windows the way TimeSeries did before it compiled a handle layout:
/// flatten the registry with collect(), parse the le_<bound> fields back,
/// and diff against name-keyed maps of the previous close.
class RefSeries {
 public:
  RefWindow close(const Registry& reg) {
    RefWindow w;
    const auto samples = reg.collect();
    for (std::size_t i = 0; i < samples.size();) {
      const Registry::Sample& s = samples[i];
      if (s.field == "value") {
        const auto prev = prev_scalar_.find(s.metric);
        const double delta =
            prev == prev_scalar_.end() ? s.value : s.value - prev->second;
        prev_scalar_[s.metric] = s.value;
        w.series.emplace(s.metric, SeriesPoint{s.value, delta});
        ++i;
        continue;
      }
      double sum = 0.0;
      RefHist h;
      std::vector<std::int64_t> cum;
      for (; i < samples.size() && samples[i].metric == s.metric; ++i) {
        const Registry::Sample& f = samples[i];
        if (f.field == "sum") {
          sum = f.value;
        } else if (f.field.rfind("le_", 0) == 0) {
          if (f.field != "le_inf") {
            h.bounds.push_back(std::strtod(f.field.c_str() + 3, nullptr));
          }
          cum.push_back(static_cast<std::int64_t>(f.value));
        }
      }
      auto& prev_cum = prev_cum_[s.metric];
      h.cum.resize(cum.size());
      for (std::size_t b = 0; b < cum.size(); ++b) {
        h.cum[b] = cum[b] - (b < prev_cum.size() ? prev_cum[b] : 0);
      }
      h.count = h.cum.back();
      h.sum = sum - prev_sum_[s.metric];
      prev_cum = cum;
      prev_sum_[s.metric] = sum;
      if (h.count > 0) w.hists.emplace(s.metric, std::move(h));
    }
    return w;
  }

 private:
  std::map<std::string, double> prev_scalar_;
  std::map<std::string, std::vector<std::int64_t>> prev_cum_;
  std::map<std::string, double> prev_sum_;
};

void expect_matches_oracle(const Window& w, const RefWindow& r) {
  ASSERT_EQ(w.series.size(), r.series.size());
  std::size_t i = 0;
  for (const auto& [name, p] : r.series) {
    EXPECT_EQ(w.series_name(i), name);
    EXPECT_EQ(w.series[i].value, p.value) << name;
    EXPECT_EQ(w.series[i].delta, p.delta) << name;
    EXPECT_EQ(w.find_series(name), &w.series[i]) << name;
    ++i;
  }
  ASSERT_EQ(w.hists.size(), r.hists.size());
  i = 0;
  for (const auto& [name, h] : r.hists) {
    const WindowHistogram& got = w.hists[i++];
    EXPECT_EQ(w.hist_name(got), name);
    EXPECT_EQ(w.find_hist(name), &got) << name;
    ASSERT_NE(got.bounds, nullptr);
    EXPECT_EQ(*got.bounds, h.bounds) << name;
    EXPECT_EQ(got.cum, h.cum) << name;
    EXPECT_EQ(got.count, h.count) << name;
    EXPECT_EQ(got.sum, h.sum) << name;
    for (double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(got.quantile(q), histogram_quantile(h.bounds, h.cum, q))
          << name << " q=" << q;
    }
  }
}

TEST(TimeSeries, HandleLayoutMatchesCollectOracle) {
  // Bounds that print exactly under %g, so the oracle's parsed-back bounds
  // equal the registry's own.
  const std::vector<double> kBounds = {0.5, 1, 2.5, 5, 10, 25, 50, 100};
  const char* const kTops[] = {"node0", "tenant", "sim", "mqfq"};
  const char* const kLeaves[] = {"wakes", "vtime", "response_ms", "bytes"};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    Registry reg;
    std::set<std::string> names;
    const auto fresh_name = [&] {
      std::string n;
      do {
        n = std::string(kTops[pick(4)]) + "/" + std::to_string(pick(40)) +
            "/" + kLeaves[pick(4)];
      } while (!names.insert(n).second);
      return n;
    };
    std::vector<Counter*> counters;
    std::vector<std::string> gauges;
    std::vector<Histogram*> hists;
    // A small ring also exercises reuse of evicted windows' buffers.
    TimeSeries ts(cfg(sim::msec(10), /*retain=*/1 + pick(3)));
    RefSeries ref;
    for (int win = 1; win <= 60; ++win) {
      for (std::size_t step = pick(14); step > 0; --step) {
        switch (pick(9)) {
          case 0:
            counters.push_back(&reg.counter(fresh_name()));
            break;
          case 1:
            gauges.push_back(fresh_name());
            reg.gauge(gauges.back()).set(double(pick(64)));
            break;
          case 2: {
            std::vector<double> bounds;
            for (double b : kBounds) {
              if (pick(2) == 0) bounds.push_back(b);
            }
            hists.push_back(&reg.histogram(fresh_name(), bounds));
            break;
          }
          case 3:
          case 4:
            if (!counters.empty()) {
              counters[pick(counters.size())]->inc(
                  static_cast<std::int64_t>(pick(5)));
            }
            break;
          case 5:
            if (!gauges.empty()) {
              reg.gauge(gauges[pick(gauges.size())])
                  .set(double(pick(400)) / 8.0 - 10.0);
            }
            break;
          case 6:
            if (!gauges.empty()) {  // rebinding keeps the gauge's handle
              const double v = double(pick(100)) / 4.0;
              reg.gauge_fn(gauges[pick(gauges.size())], [v] { return v; });
            }
            break;
          default:
            if (!hists.empty()) {
              hists[pick(hists.size())]->observe(double(pick(2400)) / 16.0);
            }
            break;
        }
      }
      const Window& w = ts.close_window(reg, sim::msec(10) * win);
      ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(w, ref.close(reg)))
          << "window " << win;
    }
  }
}

}  // namespace
}  // namespace strings::obs
