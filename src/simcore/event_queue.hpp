// Calendar-queue event scheduler for the simulation kernel.
//
// A calendar queue (Brown, CACM 1988) is the discrete-event analogue of a
// desk calendar: an array of day buckets of fixed width cycling through a
// year. enqueue hashes an event to the bucket its timestamp falls in
// (amortized O(1)); dequeue walks from the current day forward, taking the
// earliest event whose timestamp lies inside the bucket's current year.
// Bucket count and width adapt to the queue's size and density, so both
// operations stay O(1) amortized where a binary heap pays O(log n) and
// shuffles cold memory on every op.
//
// Four implementation points keep the amortized bound honest:
//  - Width comes from the *near* events (Brown §4): the separations among
//    the nearest 64 pending timestamps, outliers beyond twice their mean
//    dropped, times three. A few far-future timers (tenant churn, arrival
//    waits) no longer stretch the day so wide that the whole near-term
//    stream shares one bucket. Tail appends are the minority of pushes
//    (perfbench open_churn: 1.4% with the old all-events width, 37% now;
//    closed_supernode: 11% and 28%), so an inserted key must be cheap to
//    shift and a bucket must stay short (docs/simcore.md).
//  - Buckets hold 24-byte trivially copyable keys {time, seq, slot, weak};
//    the closures live in a slot pool, constructed in place at push and
//    moved out once at pop. A mid-bucket insert is a memmove of keys, never
//    a per-record relocate call (a channel delivery's SmallFn carries an
//    rpc::Packet and is not trivially relocatable).
//  - Buckets are vectors with a consumed-prefix `head` index, so the common
//    pop (front of a bucket) is an index bump, never an erase-and-memmove.
//    A bitmap of occupied buckets lets the calendar scan skip empty days a
//    word at a time, so a narrow width does not make locate-min walk empty
//    days one by one.
//  - Width is re-picked not only when the queue's size crosses the resize
//    thresholds but also when any single bucket grows disproportionately
//    fat — the signature of a width tuned for a long-gone event horizon
//    (e.g. a startup burst spanning seconds, then steady state in a
//    microsecond window).
//
// Ordering contract (the determinism pin): events pop in strictly
// ascending (time, seq) — exactly the total order the old
// std::priority_queue<QueuedEvent> gave. Equal-time events share a bucket
// by construction, and each bucket is kept sorted by (time, seq), so FIFO
// tie-breaking falls out structurally. All adaptation decisions depend only
// on queue content, never on the wall clock, so runs stay bit-reproducible.
// tests/event_queue_test.cpp checks all of this against a reference heap on
// randomized schedules.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"
#include "simcore/small_fn.hpp"

namespace strings::sim {

/// One dequeued kernel event. `seq` is the global schedule order (ties on
/// `time` break by it); `weak` events do not keep Simulation::run() alive.
struct EventRecord {
  SimTime time = 0;
  std::uint64_t seq = 0;
  SmallFn fn;
  bool weak = false;
};

class CalendarQueue {
 public:
  /// Lifetime operation counters, for the sim/... telemetry stream. All
  /// derived from queue content only — reading them never perturbs
  /// behaviour, so instrumented and uninstrumented runs stay identical.
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    /// Content-triggered width retunes considered (fat-bucket signature).
    std::uint64_t retunes = 0;
    /// Full rebuilds actually performed (resize or retune past hysteresis).
    std::uint64_t rebuilds = 0;
    /// Worst calendar-scan length of any locate_min: occupied buckets
    /// examined (empty ones are skipped through the occupancy bitmap).
    std::uint64_t max_bucket_scan = 0;
    /// Keys moved by mid-bucket inserts in push(): the per-push cost that
    /// a width mismatched to the near events drives up.
    std::uint64_t shifted = 0;
  };

  CalendarQueue() : buckets_(kMinBuckets), occupied_(1) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  const Stats& stats() const { return stats_; }

  /// Templated on the callable so the caller's closure is constructed
  /// straight into its pool slot (no intermediate SmallFn move).
  template <typename F>
  void push(SimTime time, std::uint64_t seq, F&& fn, bool weak) {
    assert(time >= floor_ && "cannot schedule into the past");
    const Key key{time, seq, take_slot(std::forward<F>(fn)), weak};
    const std::size_t idx = bucket_index(time);
    Bucket& b = buckets_[idx];
    // Keep each bucket's live range sorted ascending by (time, seq).
    if (b.items.empty()) {
      b.items.push_back(key);
      occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    } else if (!key_less(key, b.items.back())) {
      b.items.push_back(key);
    } else {
      const auto pos = std::upper_bound(
          b.items.begin() + static_cast<std::ptrdiff_t>(b.head), b.items.end(),
          key, key_less);
      stats_.shifted += static_cast<std::uint64_t>(b.items.end() - pos);
      b.items.insert(pos, key);
    }
    ++size_;
    ++ops_since_rebuild_;
    ++stats_.pushes;
    const std::size_t live = b.items.size() - b.head;
    if (size_ > buckets_.size() * 4 && buckets_.size() < kMaxBuckets) {
      resize(buckets_.size() * 2);
    } else if (live >= kFatBucket && (live & (live - 1)) == 0 &&
               ops_since_rebuild_ >= size_) {
      // One bucket holds a big share of the queue: the width may no longer
      // match the event horizon. Gated on ops_since_rebuild_ so the O(n)
      // retune amortizes to O(1) even when a workload keeps one bucket fat
      // (legitimate for same-timestamp bursts).
      retune(b);
    }
  }

  /// The earliest event's timestamp. Queue must be non-empty.
  SimTime min_time() { return buckets_[locate_min_index()].front().time; }

  /// Removes and returns the earliest event in (time, seq) order.
  EventRecord pop() {
    const std::size_t idx = locate_min_index();
    Bucket& b = buckets_[idx];
    const Key key = b.front();
    if (b.advance()) occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    free_slots_.push_back(key.slot);
    --size_;
    ++stats_.pops;
    floor_ = key.time;
    EventRecord ev{key.time, key.seq, std::move(slots_[key.slot]), key.weak};
    if (size_ < buckets_.size() && buckets_.size() > kMinBuckets) {
      resize(buckets_.size() / 2);
    }
    return ev;
  }

 private:
  /// What a bucket holds: the ordering key plus the index of the event's
  /// closure in `slots_`. Small and trivially copyable, so mid-bucket
  /// inserts and rebuilds move keys with memmove.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool weak;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  // A day's keys plus a consumed prefix: popping bumps `head` instead of
  // erasing the front, so drain order costs no memmove. The storage is
  // reused when the bucket drains, and a bucket that never drains (pushes
  // keep landing in today while today is consumed) drops its prefix once
  // it outweighs the live keys, so its storage stays O(live).
  struct Bucket {
    std::vector<Key> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    const Key& front() const { return items[head]; }
    /// Consumes the front; true when that drained the bucket.
    bool advance() {
      if (++head == items.size()) {
        items.clear();
        head = 0;
        return true;
      }
      if (head >= kCompactPrefix && 2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return false;
    }
  };

  static constexpr bool key_less(const Key& x, const Key& y) {
    return x.time != y.time ? x.time < y.time : x.seq < y.seq;
  }

  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::size_t kMaxBuckets = 1u << 16;
  /// Live entries in one bucket that trigger a content-based width retune.
  static constexpr std::size_t kFatBucket = 32;
  /// Consumed keys a never-draining bucket may carry before compacting.
  static constexpr std::size_t kCompactPrefix = 64;
  /// Nearest pending timestamps the width is picked from.
  static constexpr std::size_t kWidthSample = 64;
  /// Widest day, and the cap on any separation fed to the width rule.
  static constexpr SimTime kMaxWidth = SimTime{1} << 40;

  /// Puts `fn` into a free pool slot (reused LIFO) and returns its index.
  template <typename F>
  std::uint32_t take_slot(F&& fn) {
    if (free_slots_.empty()) {
      slots_.emplace_back(std::forward<F>(fn));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    slots_[slot].emplace(std::forward<F>(fn));
    free_slots_.pop_back();
    return slot;
  }

  std::size_t bucket_index(SimTime t) const {
    // Width is a power of two: shift to a day number, mask into the year.
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t) >>
                                    width_log2_) &
           (buckets_.size() - 1);
  }

  /// First occupied bucket index in [from, bucket_count()), or
  /// bucket_count() when there is none.
  std::size_t next_occupied(std::size_t from) const {
    std::size_t w = from >> 6;
    if (w >= occupied_.size()) return buckets_.size();
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == occupied_.size()) return buckets_.size();
      bits = occupied_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
  }

  /// Finds the bucket holding the global (time, seq) minimum using the
  /// calendar scan: from the current day forward, first event that falls
  /// within its bucket's current year. The lap visits occupied buckets
  /// only and tracks the earliest front on the way, so a lap without a hit
  /// (every event lives in a future year) already knows the minimum. Only
  /// pop() advances `floor_`: min_time() may look past a run_until
  /// horizon, and events scheduled before that horizon must still sort
  /// ahead of what it saw.
  std::size_t locate_min_index() {
    assert(size_ > 0);
    const std::size_t nb = buckets_.size();
    const auto day = static_cast<std::uint64_t>(floor_) >> width_log2_;
    const std::size_t start = static_cast<std::size_t>(day) & (nb - 1);
    // Common case: the minimum is in today's bucket.
    const Bucket& today = buckets_[start];
    if (!today.empty() &&
        today.front().time < static_cast<SimTime>((day + 1) << width_log2_)) {
      stats_.max_bucket_scan = std::max<std::uint64_t>(stats_.max_bucket_scan, 1);
      return start;
    }
    std::uint64_t examined = 0;
    std::size_t hit = nb, earliest = nb;
    // Each bucket's front is its minimum, and equal times share a bucket,
    // so the earliest front is the global minimum.
    auto visit = [&](std::size_t i) {
      ++examined;
      const SimTime t = buckets_[i].front().time;
      const std::uint64_t ahead = (i - start) & (nb - 1);
      if (t < static_cast<SimTime>((day + ahead + 1) << width_log2_)) {
        hit = i;
      } else if (earliest == nb || t < buckets_[earliest].front().time) {
        earliest = i;
      }
    };
    for (std::size_t i = next_occupied(start); i < nb && hit == nb;
         i = next_occupied(i + 1)) {
      visit(i);
    }
    for (std::size_t i = next_occupied(0); i < start && hit == nb;
         i = next_occupied(i + 1)) {
      visit(i);
    }
    if (hit == nb) hit = earliest;
    stats_.max_bucket_scan = std::max(stats_.max_bucket_scan, examined);
    return hit;
  }

  SimTime width() const { return SimTime{1} << width_log2_; }

  static std::int64_t log2_ceil(SimTime w) {
    std::int64_t log2 = 0;
    while ((SimTime{1} << log2) < w) ++log2;
    return log2;
  }

  void resize(std::size_t new_buckets) {
    gather();
    rebuild(new_buckets, pick_width());
  }

  /// Re-picks the width after `fat` grew fat. The fat bucket's own spacing
  /// screens first, in O(kWidthSample): when a width from its keys would
  /// not differ from the current one by 4x or more (a same-time burst, or
  /// neighbouring timestamps one day already holds), no rebuild can thin
  /// it, and the O(n) gather is skipped.
  void retune(const Bucket& fat) {
    ++stats_.retunes;
    ops_since_rebuild_ = 0;
    const std::size_t live = fat.items.size() - fat.head;
    if (width_drift(width_for(&fat.front(), std::min(live, kWidthSample))) < 2) {
      return;
    }
    gather();
    const SimTime w = pick_width();
    // Hysteresis: workloads that hover between two geometries must not
    // thrash full rebuilds. Only a width off by >= 4x is worth fixing.
    if (width_drift(w) >= 2) rebuild(buckets_.size(), w);
  }

  /// |log2(w) - log2(width())|, in whole doublings.
  std::int64_t width_drift(SimTime w) const {
    const std::int64_t log2 = log2_ceil(w);
    return log2 > width_log2_ ? log2 - width_log2_ : width_log2_ - log2;
  }

  /// Copies every live key into `keys_`.
  void gather() {
    keys_.clear();
    for (const auto& b : buckets_) {
      keys_.insert(keys_.end(),
                   b.items.begin() + static_cast<std::ptrdiff_t>(b.head),
                   b.items.end());
    }
  }

  /// The width from the nearest kWidthSample pending timestamps in `keys_`.
  SimTime pick_width() {
    const std::size_t n = std::min(keys_.size(), kWidthSample);
    std::partial_sort(keys_.begin(),
                      keys_.begin() + static_cast<std::ptrdiff_t>(n),
                      keys_.end(), key_less);
    return width_for(keys_.data(), n);
  }

  /// Brown's width rule over `n` keys sorted by time: mean separation,
  /// separations beyond twice that mean dropped (the gap to a far-future
  /// cluster is not the near density), then the smallest power of two >=
  /// 3x the trimmed mean, so a bucket holds ~3 events. Zero separations
  /// (same-time ties, which share a bucket at any width) are skipped; keys
  /// of a single timestamp keep the current width. Depends only on queue
  /// content, never on the wall clock.
  SimTime width_for(const Key* sorted, std::size_t n) const {
    std::uint64_t seps[kWidthSample];
    std::uint64_t sum = 0, count = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const SimTime sep = sorted[i].time - sorted[i - 1].time;
      if (sep == 0) continue;
      seps[count] = static_cast<std::uint64_t>(std::min(sep, kMaxWidth));
      sum += seps[count++];
    }
    if (count == 0) return width();
    std::uint64_t kept_sum = 0, kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (seps[i] * count <= 2 * sum) {  // sep <= 2 * mean
        kept_sum += seps[i];
        ++kept;
      }
    }
    const std::uint64_t target = (3 * kept_sum + kept - 1) / kept;
    SimTime w = 1;
    while (static_cast<std::uint64_t>(w) < target && w < kMaxWidth) w <<= 1;
    return w;
  }

  /// Redistributes `keys_` into `new_buckets` buckets of `new_width`.
  /// Sorting first by (time, seq) makes every bucket fill an append.
  void rebuild(std::size_t new_buckets, SimTime new_width) {
    ++stats_.rebuilds;
    std::sort(keys_.begin(), keys_.end(), key_less);
    for (auto& b : buckets_) {
      b.items.clear();
      b.head = 0;
    }
    buckets_.resize(new_buckets);
    occupied_.assign((new_buckets + 63) / 64, 0);
    width_log2_ = log2_ceil(new_width);
    for (const Key& k : keys_) {
      const std::size_t idx = bucket_index(k.time);
      buckets_[idx].items.push_back(k);
      occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }
    ops_since_rebuild_ = 0;
  }

  std::vector<Bucket> buckets_;
  /// Bit i set iff bucket i holds live keys.
  std::vector<std::uint64_t> occupied_;
  /// Closure pool: a key's `slot` indexes its SmallFn here. Free slots hold
  /// empty SmallFns, so destroying the pool destroys each pending closure
  /// exactly once.
  std::vector<SmallFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Rebuild scratch, kept to reuse its storage.
  std::vector<Key> keys_;
  std::int64_t width_log2_ = 0;
  /// Pushes since the last rebuild; gates content-triggered retunes.
  std::size_t ops_since_rebuild_ = 0;
  /// Lower bound on every queued timestamp (time of the last pop). The
  /// calendar scan starts from this day.
  SimTime floor_ = 0;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace strings::sim
