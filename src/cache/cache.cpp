#include "cache/cache.hpp"

#include <stdexcept>

#include "check/check.hpp"
#include "check/invariants.hpp"

namespace mac3d {

void CacheStats::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".accesses", static_cast<double>(accesses));
  out.set(prefix + ".hits", static_cast<double>(hits));
  out.set(prefix + ".misses", static_cast<double>(misses));
  out.set(prefix + ".evictions", static_cast<double>(evictions));
  out.set(prefix + ".writebacks", static_cast<double>(writebacks));
  out.set(prefix + ".miss_rate", miss_rate());
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (!is_pow2(config.line_bytes) || config.ways == 0 ||
      config.size_bytes %
              (static_cast<std::uint64_t>(config.line_bytes) * config.ways) !=
          0) {
    throw std::invalid_argument("Cache: bad geometry for " + config.name);
  }
  sets_ = config.sets();
  if (!is_pow2(sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  line_shift_ = log2_exact(config.line_bytes);
  set_bits_ = log2_exact(sets_);
  lines_.resize(sets_ * config.ways);
}

bool Cache::access(Address addr, bool write) {
  ++stats_.accesses;
  ++tick_;
  const std::uint64_t set = set_of(addr);
  const std::uint64_t tag = tag_of(addr);
  Line* base = &lines_[set * config_.ways];

  Line* victim = base;
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    Line& line = base[way];
    if (line.valid && line.tag == tag) {
      line.lru = touch_stamp();
      line.dirty = line.dirty || write;
      ++stats_.hits;
      if (checks_ != nullptr) check_lru_stack(set, &line);
      return true;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }

  ++stats_.misses;
  if (write && !config_.write_allocate) {
    return false;  // write-around: no fill
  }
  if (victim->valid) {
    ++stats_.evictions;
    stats_.writebacks += victim->dirty ? 1 : 0;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = touch_stamp();
  victim->dirty = write;
  if (checks_ != nullptr) check_lru_stack(set, victim);
  return false;
}

void Cache::check_lru_stack(std::uint64_t set, const Line* touched) {
  const Line* base = &lines_[set * config_.ways];
  bool mru_unique = true;
  bool stamps_distinct = true;
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    const Line& line = base[way];
    if (!line.valid || &line == touched) continue;
    mru_unique = mru_unique && line.lru < touched->lru;
    for (std::uint32_t other = way + 1; other < config_.ways; ++other) {
      if (base[other].valid && &base[other] != touched) {
        stamps_distinct = stamps_distinct && base[other].lru != line.lru;
      }
    }
  }
  MAC3D_CHECK(checks_, inv::kCacheLruStack, mru_unique && stamps_distinct,
              tick_,
              config_.name + " set " + std::to_string(set) +
                  ": touched line (stamp " + std::to_string(touched->lru) +
                  ") is not the unique MRU after access " +
                  std::to_string(tick_));
}

bool Cache::contains(Address addr) const noexcept {
  const std::uint64_t set = set_of(addr);
  const std::uint64_t tag = tag_of(addr);
  const Line* base = &lines_[set * config_.ways];
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    if (base[way].valid && base[way].tag == tag) return true;
  }
  return false;
}

void Cache::reset() {
  for (Line& line : lines_) line = Line{};
  tick_ = 0;
  stats_ = CacheStats{};
  inject_lru_ = 0;
}

CacheHierarchy::CacheHierarchy(std::vector<CacheConfig> levels) {
  if (levels.empty()) {
    throw std::invalid_argument("CacheHierarchy: need at least one level");
  }
  caches_.reserve(levels.size());
  for (const CacheConfig& config : levels) caches_.emplace_back(config);
}

std::uint32_t CacheHierarchy::access(Address addr, bool write) {
  ++total_accesses_;
  for (std::uint32_t i = 0; i < caches_.size(); ++i) {
    if (caches_[i].access(addr, write)) return i;
  }
  ++memory_accesses_;
  return static_cast<std::uint32_t>(caches_.size());
}

double CacheHierarchy::overall_miss_rate() const noexcept {
  return total_accesses_ == 0 ? 0.0
                              : static_cast<double>(memory_accesses_) /
                                    static_cast<double>(total_accesses_);
}

void CacheHierarchy::reset() {
  for (Cache& cache : caches_) cache.reset();
  memory_accesses_ = 0;
  total_accesses_ = 0;
}

}  // namespace mac3d
