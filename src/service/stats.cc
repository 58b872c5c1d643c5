#include "service/stats.h"

#include "common/string_util.h"

namespace tslrw {

std::string PlanCacheStats::ToString() const {
  return StrCat("plan cache: ", entries, " entr", entries == 1 ? "y" : "ies",
                ", ", hits, " hit(s), ", misses, " miss(es), ", coalesced,
                " coalesced, ", evictions, " eviction(s), in-flight ",
                inflight_now, " (peak ", inflight_peak, ")");
}

std::string MaintenanceStats::ToString() const {
  return StrCat("maintenance: ", selective_applies, " selective, ",
                full_flushes, " full flush(es), ", noop_applies,
                " no-op(s); entries ", entries_examined, " examined, ",
                entries_invalidated, " invalidated, ", entries_retained,
                " retained");
}

std::string ServerStats::ToString() const {
  std::string out = StrCat(
      "server: ", threads, " thread(s), queue ", queue_depth, "/",
      queue_capacity, "\n  requests: ", accepted, " accepted, ", rejected,
      " rejected, ", completed, " completed, ", failed,
      " failed\n  snapshots: ", catalog_swaps, " catalog swap(s), ",
      mediator_swaps, " mediator swap(s)\n  ", plan_cache.ToString(),
      "\n");
  for (size_t i = 0; i < plan_cache_shards.size(); ++i) {
    const PlanCacheStats& shard = plan_cache_shards[i];
    out += StrCat("    cache shard ", i, ": ", shard.hits, " hit(s), ",
                  shard.misses, " miss(es), ", shard.coalesced,
                  " coalesced, ", shard.evictions, " eviction(s), ",
                  shard.entries, " entr", shard.entries == 1 ? "y" : "ies",
                  "\n");
  }
  out += StrCat("  ", maintenance.ToString(), "\n");
  out += StrCat("  ", extent_memo.ToString(), "\n");
  out += StrCat("  retry-after hint: ~", retry_after_queued,
                " queued-request-time(s)\n");
  if (!breakers.empty()) {
    out += "  breakers:\n";
    for (const BreakerSnapshot& breaker : breakers) {
      out += StrCat("    ", breaker.ToString(), "\n");
    }
  }
  return out;
}

}  // namespace tslrw
