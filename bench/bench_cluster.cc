// CL-SHARD: the sharded cluster front-end — consistent-hash routing over
// canonical-query fingerprints to N QueryServer shards, each with its own
// thread pool and plan cache. Two claims are measured: (1) on a
// simulated-RTT workload whose keys spread over the ring, throughput at 4
// shards is at least 3x the single-shard rate (the `scaling` gate holds
// the paired ratio to >= 2.5x); and (2) a rebalance only cools the
// remapped keys — the retained-key fraction of the ring matches the
// observed re-hit rate after a resize. CI merges the JSON into
// BENCH_service.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "mediator/mediator.h"
#include "oem/generator.h"
#include "service/server.h"

namespace tslrw::bench {
namespace {

constexpr int kLabels = 4;

/// One capability per label, so every workload query (each touching one
/// label) is answerable through exactly one view fetch.
Mediator MakeShardedMediator() {
  std::vector<Capability> caps;
  for (int i = 0; i < kLabels; ++i) {
    Capability cap;
    cap.view = MustParse(
        StrCat("<v", i, "(P') o", i, " {<w", i, "(X') m U'>}> :- ",
               "<P' rec {<X' l", i, " U'>}>@db"),
        StrCat("V", i));
    caps.push_back(std::move(cap));
  }
  auto mediator = Mediator::Make({SourceDescription{"db", caps}});
  if (!mediator.ok()) std::abort();
  return std::move(mediator).ValueOrDie();
}

/// Small on purpose: the scaling claim is about overlapping source *round
/// trips*, so per-request CPU (evaluation, fusion) must stay far below the
/// simulated RTT — a single-core CI host serializes all CPU across every
/// shard, and a fat catalog would turn the sweep into a CPU benchmark.
SourceCatalog MakeClusterCatalog() {
  GeneratorOptions options;
  options.seed = 7;
  options.num_roots = 8;
  options.max_depth = 2;
  options.num_labels = kLabels;
  options.num_values = 4;
  options.root_label = "rec";
  SourceCatalog catalog;
  catalog.Put(GenerateOemDatabase("db", options));
  return catalog;
}

/// A mixed workload of \p n queries with pairwise-distinct canonical
/// fingerprints (the head functor is part of the canonical form), so the
/// ring spreads them across shards at its key-space balance.
std::vector<TslQuery> MakeMixedWorkload(int n) {
  std::vector<TslQuery> workload;
  workload.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workload.push_back(MustParse(
        StrCat("<q", i, "(P) out yes> :- <P rec {<X l", i % kLabels,
               " U>}>@db"),
        StrCat("Q", i)));
  }
  return workload;
}

/// Simulated deployed wrapper (same trick as bench_service.cc): a fetch
/// costs a source round trip the worker spends blocked, which is the wait
/// the per-shard thread pools overlap.
class RemoteSourceWrapper : public Wrapper {
 public:
  explicit RemoteSourceWrapper(std::chrono::microseconds rtt) : rtt_(rtt) {}

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    std::this_thread::sleep_for(rtt_);
    return base_.Fetch(capability, catalog);
  }

 private:
  std::chrono::microseconds rtt_;
  CatalogWrapper base_;
};

ClusterOptions MakeClusterOptions(size_t shards) {
  ClusterOptions options;
  options.shards = shards;
  options.server.threads = 8;
  options.server.queue_capacity = 4096;
  options.server.plan_cache_capacity = 1024;
  return options;
}

/// 20ms RTT — an order of magnitude above the per-request CPU cost, so
/// the sweep measures overlapped waiting (the thing shards multiply), not
/// evaluator speed.
WrapperFactory RemoteFactory() {
  return [](VirtualClock*, uint64_t, MetricRegistry*) {
    return std::make_unique<RemoteSourceWrapper>(
        std::chrono::microseconds(20000));
  };
}

/// Submits the whole workload and drains the futures; returns false (and
/// marks the state failed) on any error.
bool PushBatch(ShardRouter& router, const std::vector<TslQuery>& workload,
               benchmark::State& state) {
  std::vector<std::future<Result<ServeResponse>>> futures;
  futures.reserve(workload.size());
  for (const TslQuery& query : workload) {
    auto submitted = router.Submit(query);
    if (!submitted.ok()) {
      state.SkipWithError(submitted.status().ToString().c_str());
      return false;
    }
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    auto response = future.get();
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return false;
    }
    benchmark::DoNotOptimize(response);
  }
  return true;
}

/// Throughput sweep over the shard count: 256 distinct-fingerprint
/// queries, each paying a simulated 20ms source round trip, pushed
/// through the router in batches. Every shard runs the same 8-worker
/// pool, so the curve reads the routing win alone: more shards, more
/// overlapped source waits, bounded by the ring's key-space balance (the
/// busiest shard owns ~28% of the key space at 4 shards, so ~3.6x is the
/// asymptote there).
void BM_ClusterThroughputVsShards(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  ShardRouter router(MakeShardedMediator(), MakeClusterCatalog(),
                     MakeClusterOptions(shards), RemoteFactory());
  const std::vector<TslQuery> workload = MakeMixedWorkload(256);
  if (!PushBatch(router, workload, state)) return;  // warm every plan
  for (auto _ : state) {
    if (!PushBatch(router, workload, state)) return;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  const ClusterStats stats = router.stats();
  state.counters["hit_rate"] = stats.TotalPlanCache().hit_rate();
  state.counters["rerouted"] = static_cast<double>(stats.rerouted);
}
BENCHMARK(BM_ClusterThroughputVsShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The acceptance claim as a *paired* measurement (the
/// BM_ServeResilientOverhead trick): each iteration pushes the same batch
/// through a 1-shard and a 4-shard cluster, alternating which goes first,
/// and exports the wall-time ratio as a `scaling` counter.
/// check_bench_regression.py gates it at >= 2.5x — pairing inside
/// the benchmark is what lets a throughput floor survive CI machine
/// variance that separately-timed rows could not.
void BM_ClusterScaling(benchmark::State& state) {
  ShardRouter one(MakeShardedMediator(), MakeClusterCatalog(),
                  MakeClusterOptions(1), RemoteFactory());
  ShardRouter four(MakeShardedMediator(), MakeClusterCatalog(),
                   MakeClusterOptions(4), RemoteFactory());
  const std::vector<TslQuery> workload = MakeMixedWorkload(256);
  if (!PushBatch(one, workload, state)) return;
  if (!PushBatch(four, workload, state)) return;
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds one_ns{0};
  std::chrono::nanoseconds four_ns{0};
  auto run = [&](ShardRouter& router, std::chrono::nanoseconds* total) {
    const auto start = Clock::now();
    if (!PushBatch(router, workload, state)) return false;
    *total += Clock::now() - start;
    return true;
  };
  bool one_first = true;
  for (auto _ : state) {
    if (one_first) {
      if (!run(one, &one_ns) || !run(four, &four_ns)) return;
    } else {
      if (!run(four, &four_ns) || !run(one, &one_ns)) return;
    }
    one_first = !one_first;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["shard1_us"] =
      static_cast<double>(one_ns.count()) / 1e3 / iters;
  state.counters["shard4_us"] =
      static_cast<double>(four_ns.count()) / 1e3 / iters;
  state.counters["scaling"] =
      four_ns.count() > 0 ? static_cast<double>(one_ns.count()) /
                                static_cast<double>(four_ns.count())
                          : 0.0;
}
BENCHMARK(BM_ClusterScaling)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Rebalance cost and cache retention: warm a 4-shard cluster, grow it to
/// 5, and re-serve the workload. The ring predicts the retained fraction
/// (~4/5 of the key space keeps its shard); the observed re-hit rate must
/// track it — only remapped keys recompute their plans. No simulated RTT
/// here: the timed cost is the resize itself (template mediator copies +
/// the ring swap) plus the cold replans.
void BM_ClusterRebalance(benchmark::State& state) {
  const SourceCatalog catalog = MakeClusterCatalog();
  const std::vector<TslQuery> workload = MakeMixedWorkload(128);
  double retained = 0.0;
  double rehit = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    ClusterOptions options = MakeClusterOptions(4);
    options.server.threads = 2;
    ShardRouter router(MakeShardedMediator(), catalog, options);
    for (const TslQuery& query : workload) {
      auto warm = router.Answer(query);
      if (!warm.ok()) {
        state.SkipWithError(warm.status().ToString().c_str());
        return;
      }
    }
    state.ResumeTiming();
    retained = router.Resize(5);
    size_t hits = 0;
    for (const TslQuery& query : workload) {
      auto response = router.Answer(query);
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      if (response->plan_cache_hit) ++hits;
    }
    rehit = static_cast<double>(hits) / static_cast<double>(workload.size());
  }
  state.counters["retained"] = retained;
  state.counters["rehit_rate"] = rehit;
}
BENCHMARK(BM_ClusterRebalance)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
