#ifndef TSLRW_SERVICE_STATS_H_
#define TSLRW_SERVICE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mediator/resilience.h"
#include "oem/database.h"

namespace tslrw {

/// \brief A point-in-time snapshot of plan-cache effectiveness. All
/// counters are cumulative since the cache (generation) was created.
struct PlanCacheStats {
  /// Lookups answered from a cached rewriting-plan list.
  uint64_t hits = 0;
  /// Lookups that had to run the plan search (the exponential part).
  uint64_t misses = 0;
  /// Entries dropped by per-shard LRU to stay within capacity.
  uint64_t evictions = 0;
  /// Lookups that blocked on another request's in-flight computation of
  /// the same canonical query instead of searching redundantly.
  uint64_t coalesced = 0;
  /// Plan searches running right now / the most ever concurrent. The peak
  /// can never exceed the number of distinct canonical queries in flight —
  /// that is the single-flight guarantee.
  uint64_t inflight_now = 0;
  uint64_t inflight_peak = 0;
  /// Cached plan lists currently resident.
  size_t entries = 0;

  double hit_rate() const {
    const uint64_t lookups = hits + misses + coalesced;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits + coalesced) /
                              static_cast<double>(lookups);
  }

  std::string ToString() const;
};

/// \brief Cumulative counters for incremental catalog maintenance: how
/// mediator swaps were applied to the plan cache (docs/SERVING.md
/// "Incremental maintenance").
struct MaintenanceStats {
  /// Swaps applied by selective, footprint-driven invalidation.
  uint64_t selective_applies = 0;
  /// Swaps that fell back to (or were configured as) a full flush.
  uint64_t full_flushes = 0;
  /// Swaps whose catalog delta was empty — nothing touched, no new
  /// generation started.
  uint64_t noop_applies = 0;
  /// Cached entries examined / dropped / kept across all swaps. On a full
  /// flush every resident entry counts as examined and invalidated.
  uint64_t entries_examined = 0;
  uint64_t entries_invalidated = 0;
  uint64_t entries_retained = 0;

  std::string ToString() const;
};

/// \brief A point-in-time snapshot of the serving layer as a whole.
struct ServerStats {
  /// Requests admitted to the queue / turned away at admission control.
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  /// Requests that produced an answer / a failure status.
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Snapshot swaps: catalog-only (plans survive) and mediator (plans
  /// invalidated — a new cache generation starts).
  uint64_t catalog_swaps = 0;
  uint64_t mediator_swaps = 0;
  size_t threads = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  PlanCacheStats plan_cache;
  /// Per-cache-shard counters (index = fingerprint % shards): where each
  /// lock shard's hits, misses, and coalesced waits landed. `plan_cache`
  /// is their sum; Statsz prints one line per shard.
  std::vector<PlanCacheStats> plan_cache_shards;
  /// How mediator swaps were applied to the plan cache.
  MaintenanceStats maintenance;
  /// The serving catalog generation's extent memo (zeroed by a publish).
  ExtentMemo::Stats extent_memo;
  /// The admission-control retry-after hint, in queued-request-times: a
  /// rejected client should wait roughly this many average request
  /// durations before resubmitting (it equals the current queue depth —
  /// the work ahead of a hypothetical next request).
  size_t retry_after_queued = 0;
  /// Per-endpoint circuit-breaker states (empty when the server runs
  /// without a resilience policy or no endpoint has been touched yet).
  std::vector<BreakerSnapshot> breakers;

  std::string ToString() const;
};

}  // namespace tslrw

#endif  // TSLRW_SERVICE_STATS_H_
