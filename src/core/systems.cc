#include "core/systems.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <shared_mutex>

#include "core/border_precompute.h"
#include "core/eb.h"
#include "core/full_cycle_system.h"
#include "core/nr.h"

namespace airindex::core {

namespace {

template <typename System>
Result<std::unique_ptr<AirSystem>> Upcast(
    Result<std::unique_ptr<System>> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<AirSystem>(std::move(built).value());
}

/// Hands a method the border precompute of `regions` kd regions: a fresh
/// one on the cold path (BuildSystem), the registry's shared one on a
/// cached build.
using PrecomputeSource =
    std::function<Result<std::shared_ptr<const BorderPrecompute>>(
        uint32_t regions)>;

/// One evaluated method: its paper name, the parameter that distinguishes
/// two builds of it (null for the parameterless DJ and SPQ), the flag that
/// must be set for it to join the default fleet (null = always), and its
/// builder, which takes that parameter's value. Only EB and NR draw on the
/// precompute source.
struct MethodEntry {
  std::string_view name;
  uint32_t SystemParams::*knob;
  bool SystemParams::*include;
  Result<std::unique_ptr<AirSystem>> (*build)(const graph::Graph&, uint32_t,
                                              const BuildConfig&,
                                              const PrecomputeSource&);
};

/// The methods in the paper's Table 1 order.
constexpr MethodEntry kMethods[] = {
    {"DJ", nullptr, nullptr,
     [](const graph::Graph& g, uint32_t, const BuildConfig& config,
        const PrecomputeSource&) { return BuildDijkstraOnAir(g, config); }},
    {"NR", &SystemParams::nr_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config,
        const PrecomputeSource& precompute)
         -> Result<std::unique_ptr<AirSystem>> {
       if (regions > NrSystem::kMaxRegions) {
         return Status::InvalidArgument("NR supports at most 256 regions");
       }
       AIRINDEX_ASSIGN_OR_RETURN(auto pre, precompute(regions));
       return Upcast(NrSystem::BuildFromPrecompute(g, *pre, config));
     }},
    {"EB", &SystemParams::eb_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config,
        const PrecomputeSource& precompute)
         -> Result<std::unique_ptr<AirSystem>> {
       AIRINDEX_ASSIGN_OR_RETURN(auto pre, precompute(regions));
       return Upcast(EbSystem::BuildFromPrecompute(g, *pre, config));
     }},
    {"LD", &SystemParams::landmarks, nullptr,
     [](const graph::Graph& g, uint32_t landmarks, const BuildConfig& config,
        const PrecomputeSource&) {
       return BuildLandmarkOnAir(g, landmarks, /*seed=*/17, config);
     }},
    {"AF", &SystemParams::arcflag_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config,
        const PrecomputeSource&) {
       return BuildArcFlagOnAir(g, regions, config);
     }},
    {"SPQ", nullptr, &SystemParams::include_spq,
     [](const graph::Graph& g, uint32_t, const BuildConfig& config,
        const PrecomputeSource&) { return BuildSpqOnAir(g, config); }},
    {"HiTi", &SystemParams::hiti_regions, &SystemParams::include_hiti,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config,
        const PrecomputeSource&) {
       return BuildHiTiOnAir(g, regions, config);
     }},
};

const MethodEntry* FindMethod(std::string_view name) {
  for (const MethodEntry& m : kMethods) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

uint32_t KnobOf(const MethodEntry& m, const SystemParams& params) {
  return m.knob != nullptr ? params.*m.knob : 0;
}

}  // namespace

std::vector<std::string_view> SystemNames(const SystemParams& params) {
  std::vector<std::string_view> names;
  for (const MethodEntry& m : kMethods) {
    if (m.include == nullptr || params.*m.include) names.push_back(m.name);
  }
  return names;
}

Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params) {
  const MethodEntry* m = FindMethod(method);
  if (m == nullptr) {
    return Status::InvalidArgument("unknown method " + std::string(method));
  }
  return m->build(
      g, KnobOf(*m, params), params.build,
      [&](uint32_t regions)
          -> Result<std::shared_ptr<const BorderPrecompute>> {
        AIRINDEX_ASSIGN_OR_RETURN(
            auto pre, ComputeKdBorderPrecompute(
                          g, regions, params.build.precompute_threads));
        return std::make_shared<const BorderPrecompute>(std::move(pre));
      });
}

Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, const SystemParams& params) {
  std::vector<std::unique_ptr<AirSystem>> systems;
  for (std::string_view name : SystemNames(params)) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, BuildSystem(g, name, params));
    systems.push_back(std::move(sys));
  }
  return systems;
}

namespace {

/// Boost-style hash combining.
void Mix(size_t* h, size_t v) {
  *h ^= v + 0x9E3779B97f4A7C15ULL + (*h << 6) + (*h >> 2);
}

/// Drops least-recently-used entries of `cache` until at most `capacity`
/// remain.
template <typename Cache>
void EvictLru(Cache* cache, size_t capacity) {
  while (cache->size() > capacity) {
    auto lru = cache->begin();
    for (auto it = cache->begin(); it != cache->end(); ++it) {
      if (it->second.tick < lru->second.tick) lru = it;
    }
    cache->erase(lru);
  }
}

/// Drops the entries of `cache` keyed on graph `g`.
template <typename Cache>
void EraseGraph(Cache* cache, const graph::Graph& g) {
  for (auto it = cache->begin(); it != cache->end();) {
    if (it->first.graph.graph == &g) {
      it = cache->erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

size_t SystemRegistry::KeyHash::operator()(const GraphKey& k) const {
  size_t h = std::hash<const void*>{}(k.graph);
  Mix(&h, std::hash<size_t>{}(k.nodes));
  Mix(&h, std::hash<size_t>{}(k.arcs));
  return h;
}

size_t SystemRegistry::KeyHash::operator()(const Key& k) const {
  size_t h = (*this)(k.graph);
  Mix(&h, std::hash<std::string>{}(k.method));
  Mix(&h, std::hash<uint32_t>{}(k.knob));
  Mix(&h, std::hash<uint8_t>{}(static_cast<uint8_t>(k.encoding)));
  return h;
}

size_t SystemRegistry::KeyHash::operator()(const PrecomputeKey& k) const {
  size_t h = (*this)(k.graph);
  Mix(&h, std::hash<uint32_t>{}(k.regions));
  return h;
}

SystemRegistry& SystemRegistry::Global() {
  static SystemRegistry* registry = new SystemRegistry();
  return *registry;
}

Result<std::shared_ptr<const AirSystem>> SystemRegistry::Get(
    const graph::Graph& g, std::string_view method,
    const SystemParams& params) {
  const MethodEntry* m = FindMethod(method);
  if (m == nullptr) {
    return Status::InvalidArgument("unknown method " + std::string(method));
  }
  Key key{{&g, g.num_nodes(), g.num_arcs()},
          std::string(method),
          KnobOf(*m, params),
          params.build.encoding};
  {
    // Fast path: a shared lock suffices for a hit while the cache is under
    // capacity — recency stamps only matter once an eviction is possible,
    // so skipping the tick write keeps concurrent workers from serializing
    // on the write lock for every lookup.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && cache_.size() < capacity_) {
      return it->second.system;
    }
  }
  {
    // At/over capacity (or a miss racing a concurrent insert): re-find
    // under the exclusive lock and refresh the recency stamp.
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.tick = ++use_tick_;
      return it->second.system;
    }
  }
  // Build outside the lock: pre-computation can take seconds and other
  // methods' lookups shouldn't serialize behind it. A racing builder of the
  // same key loses to whichever insert lands first.
  AIRINDEX_ASSIGN_OR_RETURN(
      auto built,
      m->build(g, key.knob, params.build, [&](uint32_t regions) {
        return SharedPrecompute(g, regions, params.build.precompute_threads);
      }));
  std::shared_ptr<const AirSystem> sys(std::move(built));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      cache_.emplace(std::move(key), Entry{std::move(sys), ++use_tick_});
  if (!inserted) it->second.tick = use_tick_;
  std::shared_ptr<const AirSystem> result = it->second.system;
  EvictOverCapacityLocked();
  return result;
}

Result<std::shared_ptr<const BorderPrecompute>>
SystemRegistry::SharedPrecompute(const graph::Graph& g, uint32_t regions,
                                 unsigned num_threads) {
  PrecomputeKey key{{&g, g.num_nodes(), g.num_arcs()}, regions};
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = precomputes_.find(key);
    if (it != precomputes_.end()) {
      it->second.tick = ++use_tick_;
      return it->second.pre;
    }
  }
  // Computed without mu_, like a system build; a racing pair may compute
  // twice, and the first insert wins.
  AIRINDEX_ASSIGN_OR_RETURN(auto computed,
                            ComputeKdBorderPrecompute(g, regions, num_threads));
  auto pre = std::make_shared<const BorderPrecompute>(std::move(computed));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = precomputes_.emplace(
      std::move(key), PrecomputeEntry{std::move(pre), ++use_tick_});
  if (!inserted) it->second.tick = use_tick_;
  std::shared_ptr<const BorderPrecompute> result = it->second.pre;
  EvictOverCapacityLocked();
  return result;
}

Result<SharedSystems> SystemRegistry::GetAll(const graph::Graph& g,
                                             const SystemParams& params) {
  SharedSystems systems;
  for (std::string_view name : SystemNames(params)) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, Get(g, name, params));
    systems.push_back(std::move(sys));
  }
  return systems;
}

size_t SystemRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return cache_.size();
}

size_t SystemRegistry::precompute_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return precomputes_.size();
}

size_t SystemRegistry::capacity() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return capacity_;
}

void SystemRegistry::set_capacity(size_t capacity) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A zero cap would make every Get rebuild; keep at least one slot.
  capacity_ = std::max<size_t>(1, capacity);
  EvictOverCapacityLocked();
}

void SystemRegistry::EvictOverCapacityLocked() {
  EvictLru(&cache_, capacity_);
  EvictLru(&precomputes_, capacity_);
}

void SystemRegistry::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
  precomputes_.clear();
}

void SystemRegistry::Evict(const graph::Graph& g) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  EraseGraph(&cache_, g);
  EraseGraph(&precomputes_, g);
}

}  // namespace airindex::core
