#include "obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace strings::obs {

namespace {

/// Appends `s` JSON-escaped (no quotes), copying unescaped runs whole.
void append_escaped(std::string* out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (esc != nullptr) {
      out->append(esc);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out->append(buf);
    }
  }
  out->append(s.data() + run, s.size() - run);
}

/// Formats the trace into a string and hands it to the stream in large
/// blocks: a long trace holds ~10^6 sampler counters, and per-field
/// ostream inserts (plus a string per escaped field and per timestamp)
/// dominated the export.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& os) : os_(os) {
    buf_.reserve(kBlock + kBlock / 4);
  }
  ~TraceWriter() { flush(); }

  TraceWriter& operator<<(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  TraceWriter& operator<<(char c) {
    buf_.push_back(c);
    return *this;
  }
  template <class Int>
    requires std::is_integral_v<Int>
  TraceWriter& operator<<(Int v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    buf_.append(buf, static_cast<std::size_t>(r.ptr - buf));
    return *this;
  }
  /// A JSON string body (the caller writes the quotes).
  TraceWriter& escaped(std::string_view s) {
    append_escaped(&buf_, s);
    return *this;
  }
  /// Microseconds with nanosecond precision (Chrome traces use double us).
  TraceWriter& us(sim::SimTime ns) {
    char buf[48];
    if (ns < 0) {  // "%lld.%03lld" of a negative time, kept as it renders
      std::snprintf(buf, sizeof buf, "%lld.%03lld",
                    static_cast<long long>(ns / 1000),
                    static_cast<long long>(ns % 1000));
      buf_.append(buf);
      return *this;
    }
    char* p = std::to_chars(buf, buf + sizeof buf, ns / 1000).ptr;
    const auto frac = static_cast<int>(ns % 1000);
    *p++ = '.';
    *p++ = static_cast<char>('0' + frac / 100);
    *p++ = static_cast<char>('0' + frac / 10 % 10);
    *p++ = static_cast<char>('0' + frac % 10);
    buf_.append(buf, static_cast<std::size_t>(p - buf));
    return *this;
  }
  /// %.17g, which round-trips doubles.
  TraceWriter& number(double v) {
    char buf[48];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    buf_.append(buf, static_cast<std::size_t>(r.ptr - buf));
    return *this;
  }
  TraceWriter& args(std::span<const TraceArg> args) {
    buf_.append("\"args\":{");
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) buf_.push_back(',');
      buf_.push_back('"');
      append_escaped(&buf_, args[i].key);
      buf_.append("\":\"");
      append_escaped(&buf_, args[i].value);
      buf_.push_back('"');
    }
    buf_.push_back('}');
    return *this;
  }
  /// Starts the next element of the traceEvents array.
  TraceWriter& sep() {
    if (buf_.size() >= kBlock) flush();
    if (!first_) buf_.push_back(',');
    first_ = false;
    buf_.push_back('\n');
    return *this;
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 20;
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

  std::ostream& os_;
  std::string buf_;
  bool first_ = true;
};

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(&out, s);
  return out;
}

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  TraceWriter w(os);
  w << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Metadata: run-level labels (mode, policies, topology). Offline tools
  // (tools/strings_prof) read these back so their reports carry the same
  // header the online profiler prints.
  if (!tracer.meta().empty()) {
    std::vector<TraceArg> meta_args;
    for (const auto& [k, v] : tracer.meta()) meta_args.push_back({k, v});
    w.sep() << "{\"ph\":\"M\",\"name\":\"strings_run_config\",\"pid\":0,"
               "\"tid\":0,";
    w.args(meta_args) << '}';
  }

  // Metadata: process and thread names + sort order.
  const auto& procs = tracer.processes();
  for (std::size_t pid = 0; pid < procs.size(); ++pid) {
    w.sep() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":\"";
    w.escaped(procs[pid].name) << "\"}}";
    w.sep() << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":"
            << pid << ",\"tid\":0,\"args\":{\"sort_index\":"
            << procs[pid].sort_index << "}}";
  }
  for (const auto& t : tracer.tracks()) {
    w.sep() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << t.pid
            << ",\"tid\":" << t.tid << ",\"args\":{\"name\":\"";
    w.escaped(t.name) << "\"}}";
  }

  const auto& tracks = tracer.tracks();
  for (const auto& e : tracer.events()) {
    const auto& t = tracks[static_cast<std::size_t>(e.track)];
    w.sep();
    switch (e.type) {
      case Tracer::EventType::kComplete:
        w << "{\"ph\":\"X\",\"name\":\"";
        w.escaped(tracer.name(e.name_id))
            << "\",\"pid\":" << t.pid << ",\"tid\":" << t.tid << ",\"ts\":";
        w.us(e.ts) << ",\"dur\":";
        w.us(e.dur) << ',';
        w.args(tracer.args(e)) << '}';
        break;
      case Tracer::EventType::kInstant:
        w << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"";
        w.escaped(tracer.name(e.name_id))
            << "\",\"pid\":" << t.pid << ",\"tid\":" << t.tid << ",\"ts\":";
        w.us(e.ts) << ',';
        w.args(tracer.args(e)) << '}';
        break;
      case Tracer::EventType::kCounter:
        w << "{\"ph\":\"C\",\"name\":\"";
        w.escaped(tracer.name(e.name_id))
            << "\",\"pid\":" << t.pid << ",\"tid\":" << t.tid << ",\"ts\":";
        w.us(e.ts) << ",\"args\":{\"value\":";
        w.number(e.value) << "}}";
        break;
    }
  }

  // Interference forensics: the occupant flight-recorder ring, one "occ"
  // span per stamp under a synthetic "forensics" process (the Tracer's
  // track registry is untouched — the pid is allocated here, past every
  // real process). tools/strings_prof reads these back to re-derive the
  // interference matrix and exemplars byte-identically offline.
  if (tracer.forensics_enabled() && !tracer.occupants().empty()) {
    const int fpid = static_cast<int>(procs.size());
    w.sep() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << fpid
            << ",\"tid\":0,\"args\":{\"name\":\"forensics\"}}";
    w.sep() << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":"
            << fpid << ",\"tid\":0,\"args\":{\"sort_index\":2000}}";
    w.sep() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << fpid
            << ",\"tid\":0,\"args\":{\"name\":\"occupants\"}}";
    for (const auto& s : tracer.occupants()) {
      w.sep() << "{\"ph\":\"X\",\"name\":\"occ\",\"pid\":" << fpid
              << ",\"tid\":0,\"ts\":";
      w.us(s.begin) << ",\"dur\":";
      w.us(s.end - s.begin) << ',';
      const TraceArg args[] = {{"res", s.resource}, {"tenant", s.tenant}};
      w.args(args) << '}';
    }
  }

  // Requests that were issued but never completed get no umbrella span
  // (end_request never ran); emit an instant per straggler so offline
  // consumers can still account for them.
  for (const auto& [app_id, r] : tracer.requests()) {
    if (r.issued_at < 0 || r.completed_at >= 0) continue;
    int pid = 0, tid = 0;
    if (r.track >= 0) {
      const auto& t = tracks[static_cast<std::size_t>(r.track)];
      pid = t.pid;
      tid = t.tid;
    }
    w.sep() << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"request.incomplete\","
               "\"pid\":"
            << pid << ",\"tid\":" << tid << ",\"ts\":";
    w.us(r.issued_at) << ',';
    const TraceArg args[] = {{"tenant", r.tenant},
                             {"app_id", std::to_string(app_id)},
                             {"app", r.app_type},
                             {"issued", std::to_string(r.issued_at)}};
    w.args(args) << '}';
  }
  w << "\n]}\n";
}

bool write_chrome_trace_file(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(tracer, out);
  return static_cast<bool>(out);
}

void write_metrics_csv(const Registry& registry, std::ostream& os) {
  os << registry.to_csv();
}

bool write_metrics_csv_file(const Registry& registry,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_csv(registry, out);
  return static_cast<bool>(out);
}

}  // namespace strings::obs
