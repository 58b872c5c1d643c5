// CL-SERVE: the serving layer in front of the mediator — thread-pool
// scaling on a repeated-query workload, and what the rewriting-plan cache
// buys. Two claims are measured: (1) throughput at 4 worker threads is at
// least 2x the single-threaded rate on repeated queries, and (2) a warm
// plan cache makes per-request latency several times lower than a cold one
// (the exponential \S5.1 plan search is paid once per canonical query, not
// per request). CI publishes the JSON as BENCH_service.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "oem/generator.h"
#include "service/server.h"

namespace tslrw::bench {
namespace {

/// One per-arm capability per star arm: planning cost grows exponentially
/// with k (CL-EXP-CAND), execution cost stays modest.
Mediator MakePerArmMediator(int k) {
  std::vector<Capability> caps;
  for (int i = 0; i < k; ++i) {
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

SourceCatalog MakeCatalog(int roots) {
  GeneratorOptions options;
  options.seed = 7;
  options.num_roots = roots;
  options.max_depth = 2;
  options.num_labels = 4;
  options.num_values = 4;
  options.root_label = "rec";
  SourceCatalog catalog;
  catalog.Put(GenerateOemDatabase("db", options));
  return catalog;
}

ServerOptions MakeOptions(size_t threads) {
  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = 4096;
  return options;
}

/// Simulates the deployed wrapper: a fetch is a round trip to a remote
/// source, so it costs wall-clock time the worker spends blocked, not
/// computing. Overlapping those waits is what the thread pool is for — on
/// an in-process CatalogWrapper there is nothing to overlap and a
/// single-core host shows no scaling at all.
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

WrapperFactory RemoteSourceFactory(std::chrono::microseconds rtt) {
  return [rtt](VirtualClock*, uint64_t, MetricRegistry*) {
    return std::make_unique<RemoteSourceWrapper>(rtt);
  };
}

/// Throughput on a repeated-query workload: one client enqueues batches of
/// requests cycling through a handful of queries whose plans are already
/// cached, each request paying a simulated 2ms source round trip per view
/// fetch. Sweep the worker-thread count to read the scaling curve (4
/// threads vs 1 is the acceptance ratio): workers overlap the source
/// waits, so throughput rises with the pool until CPU saturates.
void BM_ServeThroughputVsThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  constexpr int kArms = 2;
  constexpr int kBatch = 128;
  QueryServer server(MakePerArmMediator(kArms), MakeCatalog(96),
                     MakeOptions(threads),
                     RemoteSourceFactory(std::chrono::microseconds(2000)));
  std::vector<TslQuery> workload;
  for (int i = 0; i < 4; ++i) workload.push_back(MakeStarQuery(kArms));
  for (const TslQuery& query : workload) {
    auto warm = server.Answer(query);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    std::vector<std::future<Result<ServeResponse>>> futures;
    futures.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      auto submitted =
          server.Submit(workload[static_cast<size_t>(i) % workload.size()]);
      if (!submitted.ok()) {
        state.SkipWithError(submitted.status().ToString().c_str());
        return;
      }
      futures.push_back(std::move(submitted).value());
    }
    for (auto& future : futures) {
      auto response = future.get();
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  ServerStats stats = server.stats();
  state.counters["hit_rate"] = stats.plan_cache.hit_rate();
  state.counters["rejected"] = static_cast<double>(stats.rejected);
}
BENCHMARK(BM_ServeThroughputVsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Per-request latency with a cold plan cache: every iteration starts a
/// fresh cache generation, so the request pays the full exponential plan
/// search before executing. Compare against BM_ServeWarmPlanCache below —
/// same query, same data, plans cached — for the cache's latency win.
void BM_ServeColdPlanCache(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  QueryServer server(MakePerArmMediator(k), MakeCatalog(8), MakeOptions(1));
  TslQuery query = MakeStarQuery(k);
  for (auto _ : state) {
    server.InvalidatePlans();
    auto response = server.Answer(query);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    if (response->plan_cache_hit) {
      state.SkipWithError("cold run unexpectedly hit the plan cache");
      return;
    }
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeColdPlanCache)->DenseRange(3, 7)->Unit(
    benchmark::kMicrosecond);

void BM_ServeWarmPlanCache(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  QueryServer server(MakePerArmMediator(k), MakeCatalog(8), MakeOptions(1));
  TslQuery query = MakeStarQuery(k);
  auto warm = server.Answer(query);
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto response = server.Answer(query);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    if (!response->plan_cache_hit) {
      state.SkipWithError("warm run missed the plan cache");
      return;
    }
    benchmark::DoNotOptimize(response);
  }
  state.counters["hit_rate"] = server.stats().plan_cache.hit_rate();
}
BENCHMARK(BM_ServeWarmPlanCache)->DenseRange(3, 7)->Unit(
    benchmark::kMicrosecond);

/// α-equivalent renamings of one query: canonicalization folds them onto a
/// single cache entry, so every rendering after the first is a hit. This
/// prices the canonicalization step itself (it is on the hit path).
void BM_ServeAlphaRenamedWorkload(benchmark::State& state) {
  constexpr int kArms = 3;
  QueryServer server(MakePerArmMediator(kArms), MakeCatalog(8),
                     MakeOptions(1));
  // The same star query under four different variable alphabets.
  std::vector<TslQuery> renamings;
  for (int r = 0; r < 4; ++r) {
    std::vector<std::string> conditions;
    for (int i = 0; i < kArms; ++i) {
      conditions.push_back(
          StrCat("<P", r, " rec {<R", r, "x", i, " l", i, " u", i, ">}>@db"));
    }
    renamings.push_back(MustParse(
        StrCat("<f(P", r, ") out yes> :- ", Join(conditions, " AND ")), "Q"));
  }
  auto first = server.Answer(renamings[0]);
  if (!first.ok()) {
    state.SkipWithError(first.status().ToString().c_str());
    return;
  }
  size_t next = 1;
  for (auto _ : state) {
    auto response = server.Answer(renamings[next % renamings.size()]);
    ++next;
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    if (!response->plan_cache_hit) {
      state.SkipWithError("renamed query missed the plan cache");
      return;
    }
    benchmark::DoNotOptimize(response);
  }
  state.counters["misses"] =
      static_cast<double>(server.stats().plan_cache.misses);
}
BENCHMARK(BM_ServeAlphaRenamedWorkload)->Unit(benchmark::kMicrosecond);

/// Two α-equivalent mirror endpoints over one source: the fixture that
/// exercises the whole resilience surface — breakers record outcomes for
/// both, hedge partner sets are non-empty, failover has somewhere to go.
Mediator MakeMirroredMediator() {
  Capability a;
  a.view = MakeDumpView("MirrorA");
  Capability b;
  b.view = MakeDumpView("MirrorB");
  auto mediator = Mediator::Make(
      {SourceDescription{"db", {a}}, SourceDescription{"db", {b}}});
  if (!mediator.ok()) std::abort();
  return std::move(mediator).ValueOrDie();
}

ServerOptions ResilientOptions(size_t threads) {
  ServerOptions options = MakeOptions(threads);
  options.resilience.breaker.enabled = true;
  options.resilience.hedge.enabled = true;
  options.request_deadline_ticks = 4096;
  return options;
}

/// The resilience tax on the fault-free serving path, as a *paired*
/// comparison (the BM_RewriteObserved trick): each iteration pushes the
/// same warm-cache batch through a plain server and a server with
/// breakers + hedging + an admission deadline, alternating which goes
/// first, and accumulates the wall times separately.
/// check_bench_regression --overhead gates the exported ratio at <5% —
/// the acceptance bar for shipping the resilience layer enabled.
void BM_ServeResilientOverhead(benchmark::State& state) {
  constexpr int kBatch = 16;
  SourceCatalog catalog = MakeCatalog(96);
  QueryServer plain(MakeMirroredMediator(), catalog, MakeOptions(1));
  QueryServer resilient(MakeMirroredMediator(), catalog,
                        ResilientOptions(1));
  std::vector<TslQuery> workload;
  workload.push_back(MakeStarQuery(1));
  workload.push_back(MakeStarQuery(2));
  for (const TslQuery& query : workload) {
    auto warm_plain = plain.Answer(query);
    auto warm_resilient = resilient.Answer(query);
    if (!warm_plain.ok() || !warm_resilient.ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds plain_ns{0};
  std::chrono::nanoseconds resilient_ns{0};
  auto run = [&](QueryServer& server, std::chrono::nanoseconds* total) {
    const auto start = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      auto response =
          server.Answer(workload[static_cast<size_t>(i) % workload.size()]);
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(response);
    }
    *total += Clock::now() - start;
  };
  bool plain_first = true;
  for (auto _ : state) {
    if (plain_first) {
      run(plain, &plain_ns);
      run(resilient, &resilient_ns);
    } else {
      run(resilient, &resilient_ns);
      run(plain, &plain_ns);
    }
    plain_first = !plain_first;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["plain_us"] =
      static_cast<double>(plain_ns.count()) / 1e3 / iters;
  state.counters["observed_us"] =
      static_cast<double>(resilient_ns.count()) / 1e3 / iters;
  state.counters["overhead"] =
      plain_ns.count() > 0
          ? static_cast<double>(resilient_ns.count()) /
                static_cast<double>(plain_ns.count())
          : 0.0;
}
BENCHMARK(BM_ServeResilientOverhead)->Unit(benchmark::kMicrosecond);

/// A wrapper that injects the chaos drill's flaky-plus-slow regime into
/// every fetch, on the request's own virtual clock (slowness costs ticks,
/// not wall time; the wall-time cost measured here is the *handling* —
/// retries, backoff bookkeeping, failover replans, breaker updates).
class ChaosBenchWrapper : public Wrapper {
 public:
  ChaosBenchWrapper(uint64_t seed, VirtualClock* clock)
      : injector_(&base_, seed, clock) {
    FaultSchedule flaky;
    flaky.steady_state = Fault::Flaky(0.3);
    injector_.SetSchedule("db", flaky);
  }

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    return injector_.Fetch(capability, catalog);
  }

 private:
  CatalogWrapper base_;
  FaultInjector injector_;
};

/// CL-CHAOS: healthy-vs-chaos paired throughput on the resilient server.
/// Each iteration pushes one warm-cache batch through a fault-free server
/// and one whose wrappers flake at p=0.3, interleaved. The exported
/// `slowdown` ratio prices fault handling (retries, failover, breaker
/// churn) relative to the healthy path; the row's real time is gated by
/// the baseline comparison like every other serving benchmark.
void BM_ServeChaos(benchmark::State& state) {
  constexpr int kBatch = 16;
  SourceCatalog catalog = MakeCatalog(96);
  QueryServer healthy(MakeMirroredMediator(), catalog, ResilientOptions(1));
  QueryServer chaotic(MakeMirroredMediator(), catalog, ResilientOptions(1),
                      [](VirtualClock* clock, uint64_t seed,
                         MetricRegistry*) {
                        return std::make_unique<ChaosBenchWrapper>(seed,
                                                                   clock);
                      });
  std::vector<TslQuery> workload;
  workload.push_back(MakeStarQuery(1));
  workload.push_back(MakeStarQuery(2));
  for (const TslQuery& query : workload) {
    auto warm_healthy = healthy.Answer(query);
    auto warm_chaotic = chaotic.Answer(query);
    if (!warm_healthy.ok() || !warm_chaotic.ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds healthy_ns{0};
  std::chrono::nanoseconds chaos_ns{0};
  size_t degraded = 0;
  auto run = [&](QueryServer& server, std::chrono::nanoseconds* total) {
    const auto start = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      auto response =
          server.Answer(workload[static_cast<size_t>(i) % workload.size()]);
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      if (!response->answer.complete()) ++degraded;
      benchmark::DoNotOptimize(response);
    }
    *total += Clock::now() - start;
  };
  bool healthy_first = true;
  for (auto _ : state) {
    if (healthy_first) {
      run(healthy, &healthy_ns);
      run(chaotic, &chaos_ns);
    } else {
      run(chaotic, &chaos_ns);
      run(healthy, &healthy_ns);
    }
    healthy_first = !healthy_first;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["healthy_us"] =
      static_cast<double>(healthy_ns.count()) / 1e3 / iters;
  state.counters["chaos_us"] =
      static_cast<double>(chaos_ns.count()) / 1e3 / iters;
  state.counters["slowdown"] =
      healthy_ns.count() > 0
          ? static_cast<double>(chaos_ns.count()) /
                static_cast<double>(healthy_ns.count())
          : 0.0;
  state.counters["degraded"] = static_cast<double>(degraded) / iters;
}
BENCHMARK(BM_ServeChaos)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
