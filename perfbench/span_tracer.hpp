// Bench-side observer for the traced pass: a sim::SimHooks implementation
// that times every kernel event and every fiber slice with the host clock
// and splits the run's host time into per-layer self-time buckets.
//
// Spans: one per event (on_event_begin/end) and one child span per fiber
// slice (on_process_running/yielded), named by the fiber name's family and
// identified by the full fiber name, so the slices of one open-loop request
// share its "ol/<tenant>/<k>" id. A bounded prefix of the spans is kept in
// memory for write-out after the run; the bucket totals cover every span.
//
// Buckets partition the traced run exactly (integer nanoseconds):
//   kernel   — time between events (queue pops, the run loop)
//   callback — event time outside any fiber (engine completions, scheduler
//              epoch ticks and dispatch, rpc deliveries, obs ticks, and the
//              kernel's fiber switch-in)
//   backend / agent / app / other — fiber slices by family
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"

namespace perfbench {

class SpanTracer final : public strings::sim::SimHooks {
 public:
  enum Family : std::uint8_t {
    kCallback,  // event self time
    kBackend,   // be/... daemon workers (and their /fwd forwarders)
    kAgent,     // placement/agent* control-plane fibers
    kApp,       // srv/, gen/, ol-gen/ and ol/<tenant>/<k> workload fibers
    kOther,     // any fiber outside the families above
    kFamilies
  };

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing event span
    bool event = false;        // event span (else a fiber slice)
    Family family = kCallback;
    // Slices only; cleared once the name is resolved into SpanRecord::id.
    const strings::sim::Process* process = nullptr;
  };

  /// A span with its fiber name resolved, safe to keep after the run.
  struct SpanRecord {
    Span span;
    std::string id;
  };

  explicit SpanTracer(std::size_t span_cap) : span_cap_(span_cap) {
    spans_.reserve(span_cap_);
  }
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;
  ~SpanTracer() override {
    if (strings::sim::sim_hooks() == this) strings::sim::set_sim_hooks(nullptr);
  }

  static Family family_of(const std::string& name) {
    const auto has = [&name](const char* prefix) {
      return name.starts_with(prefix);
    };
    if (has("be/") || has("be-master/")) return kBackend;
    if (has("placement/")) return kAgent;
    if (has("ol/") || has("ol-gen/") || has("gen/") || has("srv/")) {
      return kApp;
    }
    return kOther;
  }
  static const char* family_name(Family f) {
    static constexpr std::array<const char*, kFamilies> kNames = {
        "callback", "backend", "agent", "app", "other"};
    return kNames[f];
  }

  /// Installs the hooks and starts the run clock.
  void start() {
    strings::sim::set_sim_hooks(this);
    run_start_ = last_end_ = now_ns();
  }
  /// Stops the run clock and removes the hooks.
  void stop() {
    run_end_ = now_ns();
    kernel_ns_ += run_end_ - last_end_;
    strings::sim::set_sim_hooks(nullptr);
    if (in_event_ || in_slice_) {
      throw std::logic_error("span tracer stopped inside a span");
    }
    // Resolve fiber names now: the processes die with their Simulation.
    records_.reserve(spans_.size());
    for (Span s : spans_) {
      std::string id = s.process != nullptr ? s.process->name() : "";
      s.process = nullptr;
      records_.push_back({s, std::move(id)});
    }
  }

  std::int64_t run_ns() const { return run_end_ - run_start_; }
  std::int64_t kernel_ns() const { return kernel_ns_; }
  std::int64_t family_ns(Family f) const { return family_ns_[f]; }
  /// Sum of every bucket; equals run_ns() when the spans nest correctly.
  std::int64_t bucket_sum_ns() const {
    std::int64_t s = kernel_ns_;
    for (const std::int64_t v : family_ns_) s += v;
    return s;
  }

  /// The recorded span prefix with fiber names resolved (after stop()).
  const std::vector<SpanRecord>& records() const { return records_; }

  // ---- sim::SimHooks ----
  void on_event_begin(strings::sim::Simulation&, std::uint64_t) override {
    const std::int64_t t = now_ns();
    kernel_ns_ += t - last_end_;
    in_event_ = true;
    event_start_ = t;
    slice_ns_in_event_ = 0;
    event_span_ = record({t, t, -1, true, kCallback, nullptr});
  }
  void on_event_end(strings::sim::Simulation&, std::uint64_t) override {
    const std::int64_t t = now_ns();
    family_ns_[kCallback] += (t - event_start_) - slice_ns_in_event_;
    if (event_span_ >= 0) spans_[static_cast<std::size_t>(event_span_)].end_ns = t;
    in_event_ = false;
    last_end_ = t;
  }
  void on_process_running(strings::sim::Simulation&,
                          strings::sim::Process&) override {
    in_slice_ = true;
    slice_start_ = now_ns();
  }
  void on_process_yielded(strings::sim::Simulation&,
                          strings::sim::Process& p) override {
    const std::int64_t t = now_ns();
    const std::int64_t d = t - slice_start_;
    const Family f = family_of(p.name());
    family_ns_[f] += d;
    slice_ns_in_event_ += d;
    in_slice_ = false;
    record({slice_start_, t, in_event_ ? event_span_ : -1, false, f, &p});
  }
  void on_event_scheduled(strings::sim::Simulation&, std::uint64_t) override {}
  void on_process_spawned(strings::sim::Simulation&,
                          strings::sim::Process&) override {}
  void on_mailbox_send(const void*) override {}
  void on_mailbox_recv(const void*) override {}
  void on_mailbox_destroyed(const void*) override {}

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  /// Appends `s` while the prefix buffer has room; returns its index or -1.
  std::int32_t record(const Span& s) {
    if (spans_.size() >= span_cap_) return -1;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::size_t span_cap_;
  std::vector<Span> spans_;
  std::vector<SpanRecord> records_;
  std::int64_t run_start_ = 0;
  std::int64_t run_end_ = 0;
  std::int64_t last_end_ = 0;
  std::int64_t event_start_ = 0;
  std::int64_t slice_start_ = 0;
  std::int64_t slice_ns_in_event_ = 0;
  std::int32_t event_span_ = -1;
  bool in_event_ = false;
  bool in_slice_ = false;
  std::int64_t kernel_ns_ = 0;
  std::array<std::int64_t, kFamilies> family_ns_{};
};

/// Writes spans as CSV: index, parent, kind, name, id, start/end/self ns
/// (start relative to the first span). Self time is the duration minus the
/// child slices'.
inline void write_spans_csv(const std::vector<SpanTracer::SpanRecord>& spans,
                            std::ostream& os) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& r : spans) {
    if (r.span.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.span.parent)] +=
          r.span.end_ns - r.span.start_ns;
    }
  }
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().span.start_ns;
  os << "span,parent,kind,name,id,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanTracer::Span& s = spans[i].span;
    os << i << ',' << s.parent << ',' << (s.event ? "event" : "slice") << ','
       << SpanTracer::family_name(s.family) << ',' << spans[i].id << ','
       << s.start_ns - t0 << ',' << s.end_ns - t0 << ','
       << (s.end_ns - s.start_ns) - child_ns[i] << '\n';
  }
}

}  // namespace perfbench
