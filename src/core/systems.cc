#include "core/systems.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

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

/// One evaluated method: its paper name, the parameter that distinguishes
/// two builds of it (null for the parameterless DJ and SPQ), the flag that
/// must be set for it to join the default fleet (null = always), and its
/// builder, which takes that parameter's value.
struct MethodEntry {
  std::string_view name;
  uint32_t SystemParams::*knob;
  bool SystemParams::*include;
  Result<std::unique_ptr<AirSystem>> (*build)(const graph::Graph&, uint32_t,
                                              const BuildConfig&);
};

/// The methods in the paper's Table 1 order.
constexpr MethodEntry kMethods[] = {
    {"DJ", nullptr, nullptr,
     [](const graph::Graph& g, uint32_t, const BuildConfig& config) {
       return BuildDijkstraOnAir(g, config);
     }},
    {"NR", &SystemParams::nr_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config) {
       return Upcast(NrSystem::Build(g, regions, config));
     }},
    {"EB", &SystemParams::eb_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config) {
       return Upcast(EbSystem::Build(g, regions, config));
     }},
    {"LD", &SystemParams::landmarks, nullptr,
     [](const graph::Graph& g, uint32_t landmarks,
        const BuildConfig& config) {
       return BuildLandmarkOnAir(g, landmarks, /*seed=*/17, config);
     }},
    {"AF", &SystemParams::arcflag_regions, nullptr,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config) {
       return BuildArcFlagOnAir(g, regions, config);
     }},
    {"SPQ", nullptr, &SystemParams::include_spq,
     [](const graph::Graph& g, uint32_t, const BuildConfig& config) {
       return BuildSpqOnAir(g, config);
     }},
    {"HiTi", &SystemParams::hiti_regions, &SystemParams::include_hiti,
     [](const graph::Graph& g, uint32_t regions, const BuildConfig& config) {
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
  return m->build(g, KnobOf(*m, params), params.build);
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

size_t SystemRegistry::KeyHash::operator()(const Key& k) const {
  // Boost-style hash combining over the key fields.
  size_t h = std::hash<const void*>{}(k.graph);
  auto mix = [&h](size_t v) {
    h ^= v + 0x9E3779B97f4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<size_t>{}(k.nodes));
  mix(std::hash<size_t>{}(k.arcs));
  mix(std::hash<std::string>{}(k.method));
  mix(std::hash<uint32_t>{}(k.knob));
  mix(std::hash<uint8_t>{}(static_cast<uint8_t>(k.encoding)));
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
  Key key{&g, g.num_nodes(), g.num_arcs(), std::string(method),
          m != nullptr ? KnobOf(*m, params) : 0, params.build.encoding};
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
  AIRINDEX_ASSIGN_OR_RETURN(auto built, BuildSystem(g, method, params));
  std::shared_ptr<const AirSystem> sys(std::move(built));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      cache_.emplace(std::move(key), Entry{std::move(sys), ++use_tick_});
  if (!inserted) it->second.tick = use_tick_;
  std::shared_ptr<const AirSystem> result = it->second.system;
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
  while (cache_.size() > capacity_) {
    auto lru = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.tick < lru->second.tick) lru = it;
    }
    cache_.erase(lru);
  }
}

void SystemRegistry::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
}

void SystemRegistry::Evict(const graph::Graph& g) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.graph == &g) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace airindex::core
