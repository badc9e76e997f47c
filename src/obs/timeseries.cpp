#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace strings::obs {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::int64_t>& cum, double q) {
  if (cum.empty() || cum.back() <= 0) return 0.0;
  const double total = static_cast<double>(cum.back());
  const double rank = q * total;
  std::size_t i = 0;
  while (i + 1 < cum.size() && static_cast<double>(cum[i]) < rank) ++i;
  if (i >= bounds.size()) {
    // The +inf bucket has no upper edge to interpolate toward; clamp to the
    // largest finite bound (or 0 for a bounds-less histogram).
    return bounds.empty() ? 0.0 : bounds.back();
  }
  const double upper = bounds[i];
  const double lower = i == 0 ? 0.0 : bounds[i - 1];
  const double below = i == 0 ? 0.0 : static_cast<double>(cum[i - 1]);
  const double in_bucket = static_cast<double>(cum[i]) - below;
  if (in_bucket <= 0.0) return upper;
  return lower + (upper - lower) * ((rank - below) / in_bucket);
}

double WindowHistogram::quantile(double q) const {
  static const std::vector<double> kNoBounds;
  return histogram_quantile(bounds != nullptr ? *bounds : kNoBounds, cum, q);
}

namespace {

/// Binary search of a name-ordered layout array; npos when absent.
template <class Entries>
std::size_t find_by_name(const Entries& entries, std::string_view name) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& e, std::string_view n) { return e.name < n; });
  if (it == entries.end() || it->name != name) return WindowLayout::npos;
  return static_cast<std::size_t>(it - entries.begin());
}

double read_scalar(const WindowLayout::Scalar& s) {
  return s.counter != nullptr ? static_cast<double>(s.counter->value())
                              : s.gauge->value();
}

}  // namespace

std::size_t WindowLayout::find_scalar(std::string_view name) const {
  return find_by_name(scalars, name);
}

std::size_t WindowLayout::find_histogram(std::string_view name) const {
  return find_by_name(histograms, name);
}

const SeriesPoint* Window::find_series(std::string_view name) const {
  if (layout == nullptr) return nullptr;
  const std::size_t i = layout->find_scalar(name);
  return i == WindowLayout::npos ? nullptr : &series[i];
}

const WindowHistogram* Window::find_hist(std::string_view name) const {
  if (layout == nullptr) return nullptr;
  const std::size_t k = layout->find_histogram(name);
  if (k == WindowLayout::npos) return nullptr;
  const auto it = std::lower_bound(
      hists.begin(), hists.end(), k,
      [](const WindowHistogram& h, std::size_t e) { return h.entry < e; });
  return it == hists.end() || it->entry != k ? nullptr : &*it;
}

WindowBuilder::WindowBuilder(std::uint64_t index, sim::SimTime start,
                             sim::SimTime end) {
  w_.index = index;
  w_.start = start;
  w_.end = end;
}

WindowBuilder& WindowBuilder::series(std::string name, double value,
                                     double delta) {
  points_.emplace_back(std::move(name), SeriesPoint{value, delta});
  return *this;
}

Window WindowBuilder::build() const {
  auto points = points_;
  std::stable_sort(points.begin(), points.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  auto layout = std::make_shared<WindowLayout>();
  Window w = w_;
  for (auto& [name, p] : points) {
    layout->scalars.push_back({std::move(name), nullptr, nullptr});
    w.series.push_back(p);
  }
  w.layout = std::move(layout);
  return w;
}

TimeSeries::TimeSeries(Config config) : config_(config) {
  if (config_.window <= 0) {
    throw std::invalid_argument("TimeSeries window must be positive");
  }
  if (config_.retain == 0) config_.retain = 1;
}

void TimeSeries::compile(const Registry& registry) {
  if (layout_ != nullptr && layout_->registry == &registry &&
      layout_->version == registry.layout_version()) {
    return;
  }
  auto next = std::make_shared<WindowLayout>();
  next->registry = &registry;
  next->version = registry.layout_version();
  std::size_t cum_size = 0;
  registry.visit([&](const std::string& name, const Counter* c,
                     const Gauge* g, const Histogram* h) {
    if (h == nullptr) {
      next->scalars.push_back({name, c, g});
      return;
    }
    next->histograms.push_back({name, h, cum_size});
    cum_size += h->bucket_counts().size();
  });

  // Carry the previous close over by name (both layouts are name-ordered,
  // and a registry never drops an instrument, so a name keeps its object).
  // New instruments start from zero, so their first window's delta is
  // their whole cumulative value; so does everything on a new registry.
  std::vector<double> scalar(next->scalars.size(), 0.0);
  std::vector<double> hist_sum(next->histograms.size(), 0.0);
  std::vector<std::int64_t> hist_cum(cum_size, 0);
  if (layout_ != nullptr && layout_->registry == &registry) {
    const auto same_kind = [](const WindowLayout::Scalar& a,
                              const WindowLayout::Scalar& b) {
      return (a.counter != nullptr) == (b.counter != nullptr);
    };
    std::size_t i = 0;
    for (std::size_t j = 0; j < next->scalars.size(); ++j) {
      const auto& n = next->scalars[j];
      while (i < layout_->scalars.size() && layout_->scalars[i].name < n.name) {
        ++i;
      }
      if (i < layout_->scalars.size() && layout_->scalars[i].name == n.name &&
          same_kind(layout_->scalars[i], n)) {
        scalar[j] = prev_scalar_[i++];
      }
    }
    i = 0;
    for (std::size_t j = 0; j < next->histograms.size(); ++j) {
      const auto& n = next->histograms[j];
      while (i < layout_->histograms.size() &&
             layout_->histograms[i].name < n.name) {
        ++i;
      }
      if (i < layout_->histograms.size() &&
          layout_->histograms[i].name == n.name) {
        std::copy_n(prev_hist_cum_.begin() + static_cast<std::ptrdiff_t>(
                                                 layout_->histograms[i].cum_offset),
                    n.histogram->bucket_counts().size(),
                    hist_cum.begin() +
                        static_cast<std::ptrdiff_t>(n.cum_offset));
        hist_sum[j] = prev_hist_sum_[i++];
      }
    }
  }
  layout_ = std::move(next);
  prev_scalar_ = std::move(scalar);
  prev_hist_sum_ = std::move(hist_sum);
  prev_hist_cum_ = std::move(hist_cum);
}

const Window& TimeSeries::close_window(const Registry& registry,
                                       sim::SimTime end, bool partial) {
  compile(registry);
  // Reuse the buffers of the window the ring is about to evict.
  Window w;
  if (ring_.size() >= config_.retain) {
    w = std::move(ring_.front());
    ring_.pop_front();
    w.hists.clear();
  }
  w.index = next_index_++;
  w.start = last_end_;
  w.end = end;
  w.partial = partial;
  w.layout = layout_;

  const auto& scalars = layout_->scalars;
  w.series.resize(scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const double v = read_scalar(scalars[i]);
    w.series[i] = SeriesPoint{v, v - prev_scalar_[i]};
    prev_scalar_[i] = v;
  }

  const auto& hists = layout_->histograms;
  for (std::size_t k = 0; k < hists.size(); ++k) {
    const Histogram& hist = *hists[k].histogram;
    const auto& counts = hist.bucket_counts();
    std::int64_t* prev = prev_hist_cum_.data() + hists[k].cum_offset;
    // Buckets only grow, so an unchanged total means a quiet window.
    if (hist.count() == prev[counts.size() - 1]) continue;
    WindowHistogram h;
    h.entry = k;
    h.bounds = &hist.bounds();
    h.cum.resize(counts.size());
    std::int64_t acc = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      acc += counts[b];
      // Cumulative-over-buckets of per-window bucket deltas equals the delta
      // of the cumulative buckets, so the window histogram stays monotone.
      h.cum[b] = acc - prev[b];
      prev[b] = acc;
    }
    h.count = h.cum.back();
    h.sum = hist.sum() - prev_hist_sum_[k];
    prev_hist_sum_[k] = hist.sum();
    w.hists.push_back(std::move(h));
  }

  last_end_ = end;
  ring_.push_back(std::move(w));
  return ring_.back();
}

bool is_valid_reducer(const std::string& reducer) {
  return reducer == "value" || reducer == "delta" || reducer == "rate" ||
         reducer == "mean" || reducer == "p50" || reducer == "p95" ||
         reducer == "p99";
}

std::optional<double> reduce_window(const Window& w, const std::string& series,
                                    const std::string& reducer) {
  if (const SeriesPoint* p = w.find_series(series)) {
    if (reducer == "value") return p->value;
    if (reducer == "delta") return p->delta;
    if (reducer == "rate") {
      const double s = w.seconds();
      return s > 0.0 ? p->delta / s : 0.0;
    }
    return std::nullopt;  // percentile reducers need a histogram
  }
  const WindowHistogram* hp = w.find_hist(series);
  if (hp == nullptr) return std::nullopt;
  const WindowHistogram& h = *hp;
  if (reducer == "delta") return static_cast<double>(h.count);
  if (reducer == "rate") {
    const double s = w.seconds();
    return s > 0.0 ? static_cast<double>(h.count) / s : 0.0;
  }
  if (reducer == "mean") return h.mean();
  if (reducer == "p50") return h.quantile(0.50);
  if (reducer == "p95") return h.quantile(0.95);
  if (reducer == "p99") return h.quantile(0.99);
  return std::nullopt;  // "value" has no meaning for a window histogram
}

namespace {

void append_double(std::string* out, double v) {
  // JSON has no nan/inf literals; clamp to null (reducers never emit these,
  // but a gauge callback could).
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[64];
  // %.17g round-trips doubles, matching the metrics CSV; integral values
  // render without a trailing ".0" so the stream stays compact.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf);
}

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void write_stream_line(std::ostream& os, const Window& w,
                       const std::string& alerts_json,
                       const std::vector<std::string>& exemplar_ids) {
  std::string line;
  line.reserve(512);
  line.append("{\"schema\":\"strings.stream.v1\",\"window\":");
  line.append(std::to_string(w.index));
  line.append(",\"start_ms\":");
  append_double(&line, sim::to_millis(w.start));
  line.append(",\"end_ms\":");
  append_double(&line, sim::to_millis(w.end));
  if (w.partial) line.append(",\"partial\":true");
  line.append(",\"series\":{");
  bool first = true;
  for (std::size_t i = 0; i < w.series.size(); ++i) {
    const SeriesPoint& p = w.series[i];
    if (p.delta == 0.0) continue;  // quiet series stay implicit
    if (!first) line.push_back(',');
    first = false;
    append_json_string(&line, w.series_name(i));
    line.append(":{\"value\":");
    append_double(&line, p.value);
    line.append(",\"delta\":");
    append_double(&line, p.delta);
    line.push_back('}');
  }
  line.append("},\"quantiles\":{");
  first = true;
  for (const WindowHistogram& h : w.hists) {
    if (!first) line.push_back(',');
    first = false;
    append_json_string(&line, w.hist_name(h));
    line.append(":{\"count\":");
    line.append(std::to_string(h.count));
    line.append(",\"sum\":");
    append_double(&line, h.sum);
    line.append(",\"p50\":");
    append_double(&line, h.quantile(0.50));
    line.append(",\"p95\":");
    append_double(&line, h.quantile(0.95));
    line.append(",\"p99\":");
    append_double(&line, h.quantile(0.99));
    line.push_back('}');
  }
  line.push_back('}');
  if (!alerts_json.empty()) {
    line.append(",\"alerts\":");
    line.append(alerts_json);
  }
  if (!exemplar_ids.empty()) {
    line.append(",\"exemplars\":[");
    for (std::size_t i = 0; i < exemplar_ids.size(); ++i) {
      if (i != 0) line.push_back(',');
      append_json_string(&line, exemplar_ids[i]);
    }
    line.push_back(']');
  }
  line.append("}\n");
  os << line;
}

}  // namespace strings::obs
