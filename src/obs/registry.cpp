#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace strings::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);  // +1: the implicit +inf bucket
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::vector<std::int64_t> Histogram::cumulative() const {
  std::vector<std::int64_t> out(buckets_.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    out[i] = acc;
  }
  return out;
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    ++layout_version_;
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
    ++layout_version_;
  }
  return *slot;
}

void Registry::gauge_fn(const std::string& name, std::function<double()> fn) {
  gauge(name).fn_ = std::move(fn);
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
    ++layout_version_;
  }
  return *slot;
}

bool Registry::contains(const std::string& name) const {
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::size_t Registry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<Registry::Sample> Registry::collect() const {
  std::vector<Sample> out;
  auto fmt_bound = [](double b) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", b);
    return std::string(buf);
  };
  visit([&](const std::string& name, const Counter* c, const Gauge* g,
            const Histogram* h) {
    if (c != nullptr) {
      out.push_back({name, "value", static_cast<double>(c->value())});
      return;
    }
    if (g != nullptr) {
      out.push_back({name, "value", g->value()});
      return;
    }
    out.push_back({name, "count", static_cast<double>(h->count())});
    out.push_back({name, "sum", h->sum()});
    out.push_back({name, "min", h->min()});
    out.push_back({name, "max", h->max()});
    const auto cum = h->cumulative();
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      out.push_back({name, "le_" + fmt_bound(h->bounds()[i]),
                     static_cast<double>(cum[i])});
    }
    out.push_back({name, "le_inf", static_cast<double>(cum.back())});
  });
  return out;
}

std::string Registry::to_csv() const {
  std::ostringstream os;
  os << "metric,field,value\n";
  for (const auto& s : collect()) {
    char buf[64];
    // %.17g round-trips doubles; integers render without a trailing ".0".
    std::snprintf(buf, sizeof buf, "%.17g", s.value);
    os << s.metric << ',' << s.field << ',' << buf << '\n';
  }
  return os.str();
}

std::vector<double> default_latency_buckets_ms() {
  return {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0};
}

std::vector<double> slowdown_buckets() {
  return {1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 64.0};
}

std::vector<double> wide_latency_buckets_ms() {
  return {1.0,    5.0,    10.0,   50.0,    100.0,   500.0,  1000.0,
          2000.0, 5000.0, 10000.0, 20000.0, 60000.0, 120000.0};
}

}  // namespace strings::obs
