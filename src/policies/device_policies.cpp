#include "policies/device_policies.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace strings::policies {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kKernelLaunch: return "KL";
    case Phase::kH2D: return "H2D";
    case Phase::kD2H: return "D2H";
    case Phase::kDefault: return "DFL";
  }
  return "?";
}

std::vector<std::uint64_t> AllAwakePolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  std::vector<std::uint64_t> out;
  out.reserve(rcb.size());
  for (const auto& r : rcb) out.push_back(r.key);
  return out;
}

std::vector<std::uint64_t> TfsPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Wake the backlogged thread with the largest deficit (entitlement minus
  // attained service). A thread that overshot its share in earlier epochs
  // carries a negative deficit and is automatically penalized; unused shares
  // of idle tenants flow to backlogged ones (work conservation).
  const RcbSnapshot* best = nullptr;
  double best_deficit = 0.0;
  for (const auto& r : rcb) {
    if (!r.backlogged) continue;
    const double deficit =
        static_cast<double>(r.entitled) - static_cast<double>(r.total_service);
    if (best == nullptr || deficit > best_deficit) {
      best = &r;
      best_deficit = deficit;
    }
  }
  if (best == nullptr) return {};
  return {best->key};
}

std::vector<std::uint64_t> LasPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Greedy: raise the priority of threads with the least decayed cumulative
  // service by admitting only the top-k of them each epoch (k matches PS's
  // three engine slots, so LAS forgoes no overlap). Short-episode jobs
  // finish sooner, minimizing total CPU stall time — at the cost of starving
  // long-episode jobs outside the window (the paper calls LAS "extremely
  // greedy" and unfair).
  std::vector<const RcbSnapshot*> backlogged;
  for (const auto& r : rcb) {
    if (r.backlogged) backlogged.push_back(&r);
  }
  std::stable_sort(backlogged.begin(), backlogged.end(),
                   [](const RcbSnapshot* a, const RcbSnapshot* b) {
                     return a->cgs < b->cgs;
                   });
  std::vector<std::uint64_t> awake;
  for (std::size_t i = 0; i < backlogged.size() && i < 3; ++i) {
    awake.push_back(backlogged[i]->key);
  }
  return awake;
}

std::vector<std::uint64_t> PsPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // One thread per GPU phase so kernel + H2D + D2H engines run concurrently.
  // Within a phase, prefer least attained service (fairness inside the
  // relaxed TFS invariant). If a phase has no candidate, fill remaining
  // slots by phase priority KL > H2D = D2H > DFL.
  std::vector<const RcbSnapshot*> backlogged;
  for (const auto& r : rcb) {
    if (r.backlogged) backlogged.push_back(&r);
  }
  if (backlogged.empty()) return {};
  std::stable_sort(backlogged.begin(), backlogged.end(),
                   [](const RcbSnapshot* a, const RcbSnapshot* b) {
                     return a->total_service < b->total_service;
                   });

  std::vector<std::uint64_t> awake;
  auto take_phase = [&](Phase p) -> bool {
    for (const auto* r : backlogged) {
      if (r->phase != p) continue;
      if (std::find(awake.begin(), awake.end(), r->key) != awake.end()) {
        continue;
      }
      awake.push_back(r->key);
      return true;
    }
    return false;
  };
  int slots = 3;
  if (take_phase(Phase::kKernelLaunch)) --slots;
  if (take_phase(Phase::kH2D)) --slots;
  if (take_phase(Phase::kD2H)) --slots;
  // Fill leftover slots by priority order (more kernel work first, then
  // transfers, then default-phase threads).
  const Phase priority[] = {Phase::kKernelLaunch, Phase::kH2D, Phase::kD2H,
                            Phase::kDefault};
  for (Phase p : priority) {
    while (slots > 0 && take_phase(p)) --slots;
    if (slots == 0) break;
  }
  return awake;
}

MqfqStickyPolicy::MqfqStickyPolicy(MqfqConfig cfg) : cfg_(cfg) {}

std::vector<std::uint64_t> MqfqStickyPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Timeless entry point (direct unit-test use): reuse the last clock the
  // dispatcher handed us, which degrades stickiness to "until re-evaluated".
  return pick_awake(rcb, last_now_);
}

std::vector<std::uint64_t> MqfqStickyPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb, sim::SimTime now) {
  last_now_ = now;
  ++evaluations_;

  // Group the per-thread snapshots by tenant: MQFQ queues are tenant-level,
  // one flow per tenant regardless of how many threads it has registered.
  // Sorting by name (snapshot order within a name) makes each tenant one run
  // and visits tenants in name order, the deterministic tie-break order.
  by_tenant_.clear();
  for (const auto& r : rcb) by_tenant_.push_back(&r);
  std::sort(by_tenant_.begin(), by_tenant_.end(),
            [](const RcbSnapshot* a, const RcbSnapshot* b) {
              const int c = a->tenant.compare(b->tenant);
              return c != 0 ? c < 0 : a < b;
            });
  tenants_.clear();
  for (const RcbSnapshot* r : by_tenant_) {
    if (tenants_.empty() || *tenants_.back().name != r->tenant) {
      tenants_.emplace_back().name = &r->tenant;
    }
    TenantView& t = tenants_.back();
    t.attained = std::max(t.attained, r->tenant_attained);
    t.weight = r->tenant_weight > 0.0 ? r->tenant_weight : 1.0;
    t.backlogged = t.backlogged || r->backlogged;
    // Each flow is a FIFO: only its head-of-line thread (lowest key =
    // registration order) dispatches. Waking a tenant's whole thread set
    // would let a deep backlog flood the engine queues past the throttle.
    if (r->backlogged && (t.head == nullptr || r->key < t.head->key)) {
      t.head = r;
    }
  }

  // Advance each flow's virtual clock by the service its tenant attained
  // since the last decision, normalized by weight. A flow transitioning
  // idle -> backlogged is lifted to the global virtual time first: idling
  // must never bank credit against active tenants (start-time fair queueing
  // arrival rule).
  for (TenantView& t : tenants_) {
    auto [it, inserted] = flows_.try_emplace(*t.name);
    Flow& f = it->second;
    if (inserted) {
      f.vt = global_vt_;
      f.last_attained = t.attained;
    }
    if (t.backlogged && !f.was_backlogged) f.vt = std::max(f.vt, global_vt_);
    const sim::SimTime delta = t.attained - f.last_attained;
    if (delta > 0) f.vt += static_cast<double>(delta) / t.weight;
    f.last_attained = t.attained;
    f.was_backlogged = t.backlogged;
    f.seen_in = evaluations_;
    t.flow = &f;
  }
  // Flows for tenants with no registered threads left keep their virtual
  // time (so a detach/re-attach cycle cannot reset history) but drop out of
  // the backlogged set and the global-vt computation below.
  for (auto& [name, f] : flows_) {
    if (f.seen_in != evaluations_) f.was_backlogged = false;
  }

  // Global virtual time = minimum over backlogged flows; throttle flows more
  // than T ahead of it. The minimum flow is never throttled, so whenever any
  // queue is backlogged at least one tenant is runnable (work conservation).
  last_throttled_.clear();
  bool any_backlogged = false;
  double min_vt = 0.0;
  for (const TenantView& t : tenants_) {
    if (!t.backlogged) continue;
    min_vt = any_backlogged ? std::min(min_vt, t.flow->vt) : t.flow->vt;
    any_backlogged = true;
  }
  if (!any_backlogged) return {};
  global_vt_ = min_vt;
  const double throttle_at = global_vt_ + static_cast<double>(cfg_.throttle_T);

  runnable_.clear();
  for (const TenantView& t : tenants_) {
    if (!t.backlogged) continue;
    if (t.flow->vt > throttle_at) {
      last_throttled_.push_back(*t.name);
    } else {
      runnable_.push_back(&t);
    }
  }

  // Stickiness: tenants still inside their window keep their slots first;
  // remaining slots go to the lowest virtual times. Ties break on tenant
  // name: tenants_ is name-sorted, so position in it is name order.
  std::sort(runnable_.begin(), runnable_.end(),
            [now](const TenantView* a, const TenantView* b) {
              const bool sa = a->flow->sticky_until > now;
              const bool sb = b->flow->sticky_until > now;
              if (sa != sb) return sa;
              if (a->flow->vt != b->flow->vt) return a->flow->vt < b->flow->vt;
              return a < b;
            });
  if (cfg_.slots > 0 &&
      runnable_.size() > static_cast<std::size_t>(cfg_.slots)) {
    runnable_.resize(static_cast<std::size_t>(cfg_.slots));
  }

  std::vector<std::uint64_t> awake;
  awake.reserve(runnable_.size());
  for (const TenantView* t : runnable_) {
    t->flow->sticky_until = now + cfg_.sticky_window;
    awake.push_back(t->head->key);
  }
  return awake;
}

std::vector<std::pair<std::string, double>> MqfqStickyPolicy::vtimes() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(flows_.size());
  for (const auto& [name, f] : flows_) out.emplace_back(name, f.vt);
  return out;
}

namespace {
std::map<std::string, std::function<std::unique_ptr<DeviceSchedPolicy>()>>&
custom_device_registry() {
  static std::map<std::string,
                  std::function<std::unique_ptr<DeviceSchedPolicy>()>>
      registry;
  return registry;
}
}  // namespace

void register_device_policy(
    const std::string& name,
    std::function<std::unique_ptr<DeviceSchedPolicy>()> factory) {
  custom_device_registry()[name] = std::move(factory);
}

std::unique_ptr<DeviceSchedPolicy> make_device_policy(const std::string& name) {
  if (auto it = custom_device_registry().find(name);
      it != custom_device_registry().end()) {
    return it->second();
  }
  if (name == "AllAwake") return std::make_unique<AllAwakePolicy>();
  if (name == "TFS") return std::make_unique<TfsPolicy>();
  if (name == "LAS") return std::make_unique<LasPolicy>();
  if (name == "PS") return std::make_unique<PsPolicy>();
  if (name == "MQFQ" || name == "mqfq") return std::make_unique<MqfqStickyPolicy>();
  throw std::invalid_argument("unknown device policy: " + name);
}

}  // namespace strings::policies
