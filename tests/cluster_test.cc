// Tier-1 coverage for the sharded cluster front-end (src/cluster/): the
// consistent-hash ring's contracts (process-independent routing, balance,
// minimal remap on growth), and the ShardRouter's — answers byte-identical
// to a single-shard QueryServer at every shard count over random-rule
// workloads, deterministic failover with §7 degradation under partition,
// retry-after hint propagation from a saturated shard, plan-cache
// retention across a rebalance, and TSan-visible snapshot-swap races
// through the router.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/ring.h"
#include "common/string_util.h"
#include "mediator/capability.h"
#include "mediator/mediator.h"
#include "mediator/wrapper.h"
#include "obs/metrics.h"
#include "oem/generator.h"
#include "oem/parser.h"
#include "service/canonical.h"
#include "testing/chaos.h"
#include "testing/random_rules.h"
#include "tsl/canonical.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

TslQuery Parse(const std::string& text, std::string name) {
  auto query = ParseTslQuery(text, std::move(name));
  EXPECT_TRUE(query.ok()) << query.status();
  return *std::move(query);
}

// --- ring properties --------------------------------------------------------

TEST(HashRingTest, RoutingIsProcessIndependent) {
  // Golden routes: the ring is built from StableFingerprint + Mix64, both
  // fixed arithmetic, so these values must hold in every process, on every
  // platform, in every run — the cluster analogue of the plan-cache key
  // goldens in canonical_test.cc. A change here is a cache-scattering
  // topology change for every deployed ring and must be deliberate.
  HashRing ring(4);
  EXPECT_EQ(ring.Route(0), 3u);
  EXPECT_EQ(ring.Route(1), 2u);
  EXPECT_EQ(ring.Route(42), 0u);
  EXPECT_EQ(ring.Route(0xDEADBEEFull), 0u);
  EXPECT_EQ(ring.Route(0x123456789ABCDEFull), 2u);
  // Two independently built rings agree everywhere.
  HashRing again(4);
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t fp = StableFingerprint(StrCat("probe ", i));
    EXPECT_EQ(ring.Route(fp), again.Route(fp));
  }
}

TEST(HashRingTest, KeysSpreadEvenlyAcrossShards) {
  HashRing ring(4);
  std::vector<size_t> counts(4, 0);
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    counts[ring.Route(StableFingerprint(StrCat("key ", i)))]++;
  }
  for (size_t shard = 0; shard < 4; ++shard) {
    const double share = static_cast<double>(counts[shard]) / n;
    EXPECT_GT(share, 0.15) << "shard " << shard;
    EXPECT_LT(share, 0.35) << "shard " << shard;
  }
}

TEST(HashRingTest, AddingAShardRemapsAtMostItsFairShare) {
  // Consistent hashing's defining property: growing 4 -> 5 shards moves
  // only the keys whose owning arc the new shard's vnodes claimed —
  // about 1/5 of them — so per-shard plan caches keep ~4/5 of their
  // working set warm across the rebalance.
  HashRing before(4);
  HashRing after(5);
  const size_t n = 20000;
  size_t moved = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t fp = StableFingerprint(StrCat("key ", i));
    const size_t from = before.Route(fp);
    const size_t to = after.Route(fp);
    if (from != to) {
      ++moved;
      // Every moved key moves TO the new shard, never between survivors.
      EXPECT_EQ(to, 4u) << "key " << i << " moved " << from << "->" << to;
    }
  }
  const double fraction = static_cast<double>(moved) / n;
  EXPECT_GT(fraction, 0.05);          // the new shard took real load
  EXPECT_LE(fraction, 1.0 / 5 + 0.05);  // and no more than its fair share
}

TEST(HashRingTest, RouteLiveWalksToTheSuccessor) {
  HashRing ring(4);
  const uint64_t fp = StableFingerprint("failover probe");
  const size_t home = ring.Route(fp);
  std::vector<bool> down(4, false);
  EXPECT_EQ(ring.RouteLive(fp, down), home);
  down[home] = true;
  const size_t successor = ring.RouteLive(fp, down);
  EXPECT_NE(successor, home);
  EXPECT_LT(successor, 4u);
  // All down: no live shard to route to.
  down.assign(4, true);
  EXPECT_EQ(ring.RouteLive(fp, down), 4u);
}

// --- fixtures ---------------------------------------------------------------

/// The replicated bibliographic fixture shared with the chaos drills:
/// source `lib` behind two α-equivalent mirrors plus a single-endpoint
/// source `s2`.
std::vector<SourceDescription> BiblioSources() {
  Capability a;
  a.view = Parse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorA");
  Capability b;
  b.view = Parse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorB");
  Capability dump;
  dump.view = Parse(
      "<dump(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "Dump2");
  return {SourceDescription{"lib", {a}}, SourceDescription{"lib", {b}},
          SourceDescription{"s2", {dump}}};
}

SourceCatalog BiblioCatalog() {
  SourceCatalog catalog;
  auto lib = ParseOemDatabase(R"(
    database lib {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue "VLDB"> <y2 year "1996">
      }>
    })");
  EXPECT_TRUE(lib.ok()) << lib.status();
  catalog.Put(*lib);
  auto s2 = ParseOemDatabase(R"(
    database s2 {
      <b1 publication {
        <u1 title "Warehouses"> <w1 venue "SIGMOD"> <x1 year "1996">
      }>
    })");
  EXPECT_TRUE(s2.ok()) << s2.status();
  catalog.Put(*s2);
  return catalog;
}

std::vector<TslQuery> BiblioQueries() {
  return {
      Parse("<f(P) sigmod yes> :- <P publication {<V venue \"SIGMOD\">}>@lib",
            "Sigmod"),
      Parse("<f(P) year97 yes> :- <P publication {<Y year \"1997\">}>@lib",
            "Year97"),
      Parse("<f(P) all2 yes> :- <P publication {<X Y Z>}>@s2", "All2"),
  };
}

/// Renders a serve outcome — answer bytes, completeness, report counters,
/// or the error status — so identity comparisons cover every observable.
std::string RenderOutcome(const Result<ServeResponse>& response) {
  if (!response.ok()) return StrCat("error: ", response.status().ToString());
  std::string out = response->answer.result.ToString();
  out += "completeness=";
  out += CompletenessToString(response->answer.completeness);
  for (const std::string& s : response->answer.unreachable_sources) {
    out += " unreachable:" + s;
  }
  out += "\n";
  return out;
}

/// A seeded random workload: a generated catalog, capability views over
/// it (a full dump so every query is answerable, plus restructuring
/// views), and random path queries.
struct RandomWorkload {
  SourceCatalog catalog;
  std::vector<SourceDescription> sources;
  std::vector<TslQuery> queries;
};

RandomWorkload MakeRandomWorkload(uint64_t seed) {
  RandomWorkload w;
  GeneratorOptions gen;
  gen.seed = seed;
  gen.num_roots = 5;
  gen.max_depth = 3;
  gen.num_labels = 3;
  gen.num_values = 3;
  gen.root_label = "root";
  gen.share_probability = 0.2;
  w.catalog.Put(GenerateOemDatabase("db", gen));

  testing::RandomRules rules(seed, /*num_labels=*/3, /*num_values=*/3,
                             "root");
  Capability dump;
  dump.view = rules.CopyView("Dump", "db");
  Capability shallow;
  shallow.view = rules.View("Shallow", "db");
  Capability deep;
  deep.view = rules.DeepView("Deep", "db");
  w.sources = {SourceDescription{"db", {dump, shallow, deep}}};
  for (int i = 0; i < 3; ++i) {
    w.queries.push_back(rules.Query(StrCat("Q", i), "db"));
  }
  return w;
}

// --- byte-identity across shard counts --------------------------------------

TEST(ShardRouterTest, AnswersByteIdenticalToSingleServerAcrossShardCounts) {
  // The tentpole invariant: routing only picks which shard's cache and
  // pool serve a request — the answer bytes are a pure function of
  // (query, seed, snapshot), which every shard replicates identically.
  // 25 random-rule workloads, each served by a plain QueryServer and by
  // clusters of 1, 2, 4, and 8 shards; every outcome must match.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const RandomWorkload w = MakeRandomWorkload(seed);
    auto made = Mediator::Make(w.sources);
    ASSERT_TRUE(made.ok()) << "seed " << seed << ": " << made.status();
    const Mediator& mediator = *made;

    ServerOptions server_options;
    server_options.threads = 1;
    server_options.queue_capacity = 4;
    const QueryServer reference(Mediator(mediator), w.catalog,
                                server_options);
    std::vector<std::string> expected;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      ServeOptions serve;
      serve.seed = seed * 1000 + i;
      expected.push_back(RenderOutcome(reference.Answer(w.queries[i], serve)));
    }

    for (size_t shards : {1u, 2u, 4u, 8u}) {
      ClusterOptions options;
      options.shards = shards;
      options.server = server_options;
      ShardRouter router(Mediator(mediator), w.catalog, options);
      for (size_t i = 0; i < w.queries.size(); ++i) {
        ServeOptions serve;
        serve.seed = seed * 1000 + i;
        EXPECT_EQ(RenderOutcome(router.Answer(w.queries[i], serve)),
                  expected[i])
            << "seed " << seed << ", " << shards << " shard(s), query " << i;
      }
    }
  }
}

TEST(ShardRouterTest, AlphaRenamedSpellingsRouteToTheSameShard) {
  // Routing hashes the canonical-query fingerprint, so two α-renamed
  // spellings of one query land on the same shard — and the second serve
  // hits the plan the first one cached there.
  const TslQuery spelled_a =
      Parse("<f(P) sigmod yes> :- <P publication {<V venue \"SIGMOD\">}>@lib",
            "SpellA");
  const TslQuery spelled_b =
      Parse("<f(Q) sigmod yes> :- <Q publication {<W venue \"SIGMOD\">}>@lib",
            "SpellB");
  const uint64_t fp_a = MakePlanCacheKey(spelled_a).fingerprint;
  const uint64_t fp_b = MakePlanCacheKey(spelled_b).fingerprint;
  EXPECT_EQ(fp_a, fp_b);

  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  ClusterOptions options;
  options.shards = 4;
  options.server.threads = 1;
  ShardRouter router(*std::move(made), BiblioCatalog(), options);
  EXPECT_EQ(router.HomeOf(fp_a), router.HomeOf(fp_b));

  auto first = router.Answer(spelled_a);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = router.Answer(spelled_b);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan_cache_hit);
}

// --- failover and partition -------------------------------------------------

TEST(ShardRouterTest, PartitionReroutesDeterministicallyAndRejoins) {
  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  ClusterOptions options;
  options.shards = 4;
  options.server.threads = 1;
  MetricRegistry metrics;
  options.server.metrics = &metrics;
  ShardRouter router(*std::move(made), BiblioCatalog(), options);

  const TslQuery query = BiblioQueries()[0];
  const uint64_t fp = MakePlanCacheKey(query).fingerprint;
  const std::string baseline = RenderOutcome(router.Answer(query));

  const size_t home = router.HomeOf(fp);
  router.SetShardDown(home, true);
  EXPECT_TRUE(router.shard_down(home));
  const size_t successor = router.RouteOf(fp);
  EXPECT_NE(successor, home);
  // The successor holds the same replicated snapshot: identical bytes.
  EXPECT_EQ(RenderOutcome(router.Answer(query)), baseline);
  EXPECT_EQ(router.RouteOf(fp), successor);  // deterministic walk
  EXPECT_GE(router.stats().rerouted, 1u);
  EXPECT_EQ(metrics.GetCounter("cluster.rerouted")->value(),
            router.stats().rerouted);

  router.SetShardDown(home, false);
  EXPECT_EQ(router.RouteOf(fp), home);
  EXPECT_EQ(RenderOutcome(router.Answer(query)), baseline);

  // Every shard partitioned: no live route left.
  for (size_t s = 0; s < router.shards(); ++s) router.SetShardDown(s, true);
  auto dead = router.Answer(query);
  EXPECT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

TEST(ShardRouterTest, PartitionChaosDrillIsSoundDeterministicAndRecovers) {
  // The multi-shard standard script swaps pool saturation for the shard
  // partition/rejoin phase: §7 degraded answers while a source is severed
  // and a shard is partitioned, byte-identical baseline after rejoin.
  const std::vector<SourceDescription> sources = BiblioSources();
  const SourceCatalog catalog = BiblioCatalog();
  const std::vector<TslQuery> queries = BiblioQueries();
  ChaosOptions options;
  options.seed = 7;
  options.requests_per_phase = 4;
  options.server.threads = 2;
  options.server.queue_capacity = 8;
  options.cluster_shards = 4;
  const std::vector<ChaosPhase> script = StandardChaosScript(sources, options);
  ASSERT_EQ(script.back().action, ChaosPhase::Action::kShardPartition);

  auto first = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(first.ok()) << first.status();
  for (const std::string& violation : first->violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(first->sound);
  EXPECT_TRUE(first->recovered);
  EXPECT_NE(first->report.find("4 shard(s)"), std::string::npos)
      << first->report;
  EXPECT_NE(first->report.find("phase shard-partition"), std::string::npos);
  EXPECT_NE(first->report.find("re-routed to its ring successor"),
            std::string::npos)
      << first->report;

  auto second = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->report, second->report);
  EXPECT_EQ(first->traces, second->traces);
}

// --- admission control ------------------------------------------------------

/// A wrapper that blocks every fetch until the shared gate releases —
/// saturating one shard's pool deterministically.
class GatedWrapper : public Wrapper {
 public:
  explicit GatedWrapper(std::shared_future<void> release)
      : release_(std::move(release)) {}

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    release_.wait();
    return base_.Fetch(capability, catalog);
  }

 private:
  CatalogWrapper base_;
  std::shared_future<void> release_;
};

TEST(ShardRouterTest, SaturatedShardHintPropagatesThroughTheRouter) {
  // Overload is not failover: the routed shard's kResourceExhausted must
  // surface with that shard's own retry-after hint (tagged with the shard
  // id), never a silent re-route to its successor.
  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  ClusterOptions options;
  options.shards = 4;
  options.server.threads = 2;
  options.server.queue_capacity = 2;
  MetricRegistry metrics;
  options.server.metrics = &metrics;
  ShardRouter router(
      *std::move(made), BiblioCatalog(), options,
      [release](VirtualClock*, uint64_t,
                MetricRegistry*) -> std::unique_ptr<Wrapper> {
        return std::make_unique<GatedWrapper>(release);
      });

  const TslQuery query = BiblioQueries()[0];
  const size_t target = router.RouteOf(MakePlanCacheKey(query).fingerprint);
  std::vector<std::future<Result<ServeResponse>>> accepted;
  std::vector<Status> rejections;
  // 2 workers block in the gate, 2 fill the queue, the rest must reject.
  for (int i = 0; i < 7; ++i) {
    auto submitted = router.Submit(query);
    if (submitted.ok()) {
      accepted.push_back(std::move(*submitted));
    } else {
      rejections.push_back(submitted.status());
    }
  }
  ASSERT_FALSE(rejections.empty());
  for (const Status& status : rejections) {
    EXPECT_TRUE(status.IsResourceExhausted()) << status;
    EXPECT_EQ(status.message().find(StrCat("shard ", target, ": ")), 0u)
        << status;
    // The shard's own hint, verbatim — not a router default.
    EXPECT_NE(status.message().find("request queue is full"),
              std::string::npos)
        << status;
    EXPECT_NE(status.message().find("retry-after"), std::string::npos)
        << status;
  }
  EXPECT_EQ(metrics.GetCounter("cluster.resource_exhausted")->value(),
            rejections.size());
  EXPECT_EQ(router.stats().resource_exhausted, rejections.size());

  gate.set_value();
  for (auto& future : accepted) {
    auto response = future.get();
    EXPECT_TRUE(response.ok()) << response.status();
  }
  router.Shutdown();
}

// --- rebalance --------------------------------------------------------------

TEST(ShardRouterTest, ResizeKeepsUnremappedKeysWarm) {
  // Growing the ring must only cool the keys whose shard changed: a key
  // still routed to its old shard finds its cached plan; a remapped key
  // recomputes on its new (cold or fresh) shard.
  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  ClusterOptions options;
  options.shards = 4;
  options.server.threads = 1;
  ShardRouter router(*std::move(made), BiblioCatalog(), options);

  const std::vector<TslQuery> queries = BiblioQueries();
  std::vector<size_t> route_before;
  for (const TslQuery& query : queries) {
    auto warm = router.Answer(query);
    ASSERT_TRUE(warm.ok()) << warm.status();
    route_before.push_back(
        router.RouteOf(MakePlanCacheKey(query).fingerprint));
  }

  const double retained = router.Resize(5);
  EXPECT_GE(retained, 0.0);
  EXPECT_LE(retained, 1.0);
  // The sampled retained fraction mirrors the ring property: ~4/5 stay.
  EXPECT_GT(retained, 0.6);
  EXPECT_EQ(router.shards(), 5u);
  EXPECT_EQ(router.stats().rebalances, 1u);

  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t route_after =
        router.RouteOf(MakePlanCacheKey(queries[i]).fingerprint);
    auto again = router.Answer(queries[i]);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->plan_cache_hit, route_after == route_before[i])
        << "query " << i << " routed " << route_before[i] << " -> "
        << route_after;
  }

  // Shrinking back re-homes the moved keys; answers keep flowing.
  (void)router.Resize(4);
  EXPECT_EQ(router.shards(), 4u);
  for (const TslQuery& query : queries) {
    EXPECT_TRUE(router.Answer(query).ok());
  }
}

// --- replication and swap races ---------------------------------------------

TEST(ShardRouterTest, ReplicationAndResizeRaceSafelyWithServing) {
  // TSan coverage for the router's topology lock: concurrent readers
  // serve through shards while a writer replicates catalog snapshots and
  // resizes the ring. Every outcome must be an answer or an admission
  // rejection — never a crash, torn snapshot, or wrong-bytes answer.
  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  ClusterOptions options;
  options.shards = 4;
  options.server.threads = 2;
  options.server.queue_capacity = 16;
  ShardRouter router(*std::move(made), BiblioCatalog(), options);

  const std::vector<TslQuery> queries = BiblioQueries();
  std::vector<std::string> baselines;
  for (const TslQuery& query : queries) {
    baselines.push_back(RenderOutcome(router.Answer(query)));
  }

  const SourceCatalog catalog = BiblioCatalog();
  std::thread writer([&router, &catalog] {
    for (int i = 0; i < 10; ++i) {
      router.ReplaceCatalog(catalog);  // answer-equivalent snapshot
      (void)router.Resize(i % 2 == 0 ? 5 : 4);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&router, &queries, &baselines, t] {
      for (int i = 0; i < 40; ++i) {
        const size_t q = static_cast<size_t>(t + i) % queries.size();
        auto response = router.Answer(queries[q]);
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(RenderOutcome(response), baselines[q]);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_GE(router.stats().replications, 10u);
  router.Shutdown();
}

// --- stats surfaces ---------------------------------------------------------

TEST(ShardRouterTest, StatszExposesPerCacheShardAndPerShardLines) {
  auto made = Mediator::Make(BiblioSources());
  ASSERT_TRUE(made.ok()) << made.status();
  ClusterOptions options;
  options.shards = 2;
  options.server.threads = 1;
  options.server.plan_cache_shards = 4;
  MetricRegistry metrics;
  options.server.metrics = &metrics;
  ShardRouter router(*std::move(made), BiblioCatalog(), options);

  for (const TslQuery& query : BiblioQueries()) {
    ASSERT_TRUE(router.Answer(query).ok());
    ASSERT_TRUE(router.Answer(query).ok());  // a hit on the same shard
  }

  const ClusterStats stats = router.stats();
  ASSERT_EQ(stats.shard.size(), 2u);
  // Satellite: the per-cache-shard breakdown sums to the aggregate.
  for (const ServerStats& shard : stats.shard) {
    ASSERT_EQ(shard.plan_cache_shards.size(), 4u);
    uint64_t hits = 0, misses = 0;
    size_t entries = 0;
    for (const PlanCacheStats& cache_shard : shard.plan_cache_shards) {
      hits += cache_shard.hits;
      misses += cache_shard.misses;
      entries += cache_shard.entries;
    }
    EXPECT_EQ(hits, shard.plan_cache.hits);
    EXPECT_EQ(misses, shard.plan_cache.misses);
    EXPECT_EQ(entries, shard.plan_cache.entries);
  }
  const PlanCacheStats total = stats.TotalPlanCache();
  EXPECT_EQ(total.hits, 3u);
  EXPECT_EQ(total.misses, 3u);

  const std::string statsz = router.Statsz();
  EXPECT_NE(statsz.find("cluster: 2 shard(s)"), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("shard 0:"), std::string::npos);
  EXPECT_NE(statsz.find("shard 1:"), std::string::npos);
  EXPECT_NE(statsz.find("cache shard 0:"), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("metrics:"), std::string::npos);
  EXPECT_NE(statsz.find("cluster.requests"), std::string::npos);
}

}  // namespace
}  // namespace tslrw
