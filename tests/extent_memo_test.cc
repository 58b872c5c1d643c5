// The per-generation extent memo (oem/database.h ExtentMemo) behind
// CatalogWrapper: hit/miss accounting, the generation rule (Put and
// UpdateCatalog start fresh memos), α-renamed spellings sharing one extent,
// fault injection and hedging still acting on every fetch without touching
// memoized extents, and concurrent serving across data publishes. Every
// extent is checked against the src/eval oracle (MaterializeView /
// Evaluate).

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "fixtures.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "mediator/resilience.h"
#include "obs/metrics.h"
#include "service/server.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

OemDatabase Publications(const char* venue_of_a2) {
  return MustParseDb(std::string(R"(
    database db {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue ")") +
                     venue_of_a2 + R"("> <y2 year "1997">
      }>
      <a3 publication {
        <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1996">
      }>
    })");
}

SourceCatalog CatalogWith(const char* venue_of_a2) {
  SourceCatalog catalog;
  catalog.Put(Publications(venue_of_a2));
  return catalog;
}

Capability View(const char* name, const char* text) {
  Capability cap;
  cap.view = MustParse(text, name);
  return cap;
}

/// Two α-equivalent mirrors (hedge partners of each other) and a venue
/// index, all over source db.
std::vector<SourceDescription> Sources() {
  return {SourceDescription{
      "db",
      {View("MirrorA",
            "<ma(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db"),
       View("MirrorB",
            "<ma(Q') pub {<S' T' U'>}> :- <Q' publication {<S' T' U'>}>@db"),
       View("Venues",
            "<vi(P') entry {<V' venue W'>}> :- "
            "<P' publication {<V' venue W'>}>@db")}}};
}

TslQuery SigmodQuery() {
  return MustParse(
      "<f(P) sigmod hit> :- <P publication {<V venue \"SIGMOD\">}>@db",
      "Sigmod");
}

/// The mediator-owned capability named \p name (identity precomputed).
const Capability& Owned(const Mediator& mediator, const std::string& name) {
  for (const SourceDescription& sd : mediator.sources()) {
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name == name) return cap;
    }
  }
  ADD_FAILURE() << "no capability " << name;
  return mediator.sources().front().capabilities.front();
}

std::string Render(const OemDatabase& db) {
  return db.name() + "\n" + db.ToString();
}

std::string Oracle(const Capability& cap, const SourceCatalog& catalog) {
  auto extent = MaterializeView(cap.view, catalog);
  EXPECT_TRUE(extent.ok()) << extent.status();
  return extent.ok() ? Render(*extent) : "";
}

std::string Fetched(Wrapper& wrapper, const Capability& cap,
                    const SourceCatalog& catalog) {
  auto fetched = wrapper.Fetch(cap, catalog);
  EXPECT_TRUE(fetched.ok()) << fetched.status();
  return fetched.ok() ? Render(fetched->data) : "";
}

uint64_t Count(MetricRegistry& metrics, const char* name) {
  return metrics.GetCounter(name)->value();
}

TEST(ExtentMemoTest, CountsHitsAndMisses) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const SourceCatalog catalog = CatalogWith("VLDB");
  MetricRegistry metrics;
  CatalogWrapper wrapper(&metrics);
  const Capability& a = Owned(*mediator, "MirrorA");
  const Capability& venues = Owned(*mediator, "Venues");

  EXPECT_EQ(Fetched(wrapper, a, catalog), Oracle(a, catalog));
  EXPECT_EQ(Fetched(wrapper, a, catalog), Oracle(a, catalog));
  EXPECT_EQ(Fetched(wrapper, venues, catalog), Oracle(venues, catalog));
  EXPECT_EQ(Fetched(wrapper, a, catalog), Oracle(a, catalog));

  const ExtentMemo::Stats stats = catalog.extent_memo()->stats();
  EXPECT_EQ(stats.extents, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(Count(metrics, "mediator.extent_memo_misses"), 2u);
  EXPECT_EQ(Count(metrics, "mediator.extent_memo_hits"), 2u);
}

TEST(ExtentMemoTest, MaterializationErrorsAreNotMemoized) {
  const SourceCatalog catalog = CatalogWith("VLDB");
  Capability foreign = View(
      "Foreign", "<g(P') x {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@elsewhere");
  CatalogWrapper wrapper;
  EXPECT_FALSE(wrapper.Fetch(foreign, catalog).ok());
  EXPECT_FALSE(wrapper.Fetch(foreign, catalog).ok());
  const ExtentMemo::Stats stats = catalog.extent_memo()->stats();
  EXPECT_EQ(stats.extents, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ExtentMemoTest, PutStartsAFreshGeneration) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const Capability& venues = Owned(*mediator, "Venues");
  SourceCatalog catalog = CatalogWith("VLDB");
  CatalogWrapper wrapper;
  const std::string before = Fetched(wrapper, venues, catalog);

  // A copy shares the memo: its contents are the same.
  const SourceCatalog copy = catalog;
  EXPECT_EQ(copy.extent_memo(), catalog.extent_memo());

  catalog.Put(Publications("SIGMOD"));
  EXPECT_NE(copy.extent_memo(), catalog.extent_memo());
  EXPECT_EQ(catalog.extent_memo()->stats().extents, 0u);
  const std::string after = Fetched(wrapper, venues, catalog);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, Oracle(venues, catalog));
  EXPECT_EQ(catalog.extent_memo()->stats().misses, 1u);

  // The copy still serves its own (old) generation, from its memo.
  EXPECT_EQ(Fetched(wrapper, venues, copy), before);
  EXPECT_EQ(copy.extent_memo()->stats().hits, 1u);
}

TEST(ExtentMemoTest, UpdateCatalogStartsAFreshGeneration) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  MetricRegistry metrics;
  ServerOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  QueryServer server(std::move(*mediator), CatalogWith("VLDB"), options);
  const TslQuery query = SigmodQuery();

  for (int i = 0; i < 3; ++i) {
    auto served = server.Answer(query);
    ASSERT_TRUE(served.ok()) << served.status();
    auto oracle = Evaluate(query, CatalogWith("VLDB"));
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(Render(served->answer.result), Render(*oracle));
  }
  const ExtentMemo::Stats warm = server.stats().extent_memo;
  EXPECT_GE(warm.extents, 1u);
  EXPECT_GE(warm.hits, 2u);
  EXPECT_NE(server.Statsz().find("extent memo: "), std::string::npos)
      << server.Statsz();

  server.UpdateCatalog(Publications("SIGMOD"));
  EXPECT_EQ(server.stats().extent_memo.extents, 0u);
  EXPECT_EQ(server.stats().extent_memo.hits, 0u);
  auto served = server.Answer(query);
  ASSERT_TRUE(served.ok()) << served.status();
  auto oracle = Evaluate(query, CatalogWith("SIGMOD"));
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Render(served->answer.result), Render(*oracle));
  EXPECT_EQ(server.stats().extent_memo.misses, warm.extents);
  EXPECT_EQ(Count(metrics, "mediator.extent_memo_misses"),
            warm.misses + warm.extents);

  // A view edit keeps the catalog, and with it every unchanged extent: the
  // titles query is answerable through the mirrors only, which the edit
  // merely α-renames, while the venue index it does change is not used.
  const TslQuery titles = MustParse(
      "<f(P) pub yes> :- <P publication {<X title Z>}>@db", "Titles");
  ASSERT_TRUE(server.Answer(titles).ok());
  std::vector<SourceDescription> sources = Sources();
  sources[0].capabilities[0] = View(
      "MirrorA",
      "<ma(R') pub {<A' B' C'>}> :- <R' publication {<A' B' C'>}>@db");
  sources[0].capabilities[2] = View(
      "Venues",
      "<vi(P') place {<V' venue W'>}> :- <P' publication {<V' venue W'>}>@db");
  auto edited = Mediator::Make(sources);
  ASSERT_TRUE(edited.ok()) << edited.status();
  const MaintenanceReport report = server.ReplaceMediator(std::move(*edited));
  EXPECT_FALSE(report.noop) << report.ToString();
  const uint64_t misses = server.stats().extent_memo.misses;
  auto retitled = server.Answer(titles);
  ASSERT_TRUE(retitled.ok()) << retitled.status();
  auto titles_oracle = Evaluate(titles, CatalogWith("SIGMOD"));
  ASSERT_TRUE(titles_oracle.ok());
  EXPECT_EQ(Render(retitled->answer.result), Render(*titles_oracle));
  EXPECT_EQ(server.stats().extent_memo.misses, misses);
  server.Shutdown();
  // Retired snapshots were handed to the pool as background work, which
  // is not counted as requests.
  EXPECT_EQ(Count(metrics, "pool.tasks_run"), 0u);
}

TEST(ExtentMemoTest, AlphaRenamedSpellingsShareOneExtent) {
  const SourceCatalog catalog = CatalogWith("VLDB");
  CatalogWrapper wrapper;
  // Hand-built capabilities carry no precomputed identity; it is computed
  // on use, α-invariantly.
  const Capability spelled = View(
      "Pubs", "<p(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db");
  const Capability renamed = View(
      "Pubs", "<p(R') pub {<A' B' C'>}> :- <R' publication {<A' B' C'>}>@db");
  EXPECT_EQ(Fetched(wrapper, spelled, catalog), Oracle(spelled, catalog));
  EXPECT_EQ(Fetched(wrapper, renamed, catalog), Oracle(renamed, catalog));
  ExtentMemo::Stats stats = catalog.extent_memo()->stats();
  EXPECT_EQ(stats.extents, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // The same rule under another name is another extent (it is named after
  // the view).
  const Capability other_name = View(
      "Copy", "<p(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db");
  EXPECT_EQ(Fetched(wrapper, other_name, catalog),
            Oracle(other_name, catalog));
  EXPECT_EQ(catalog.extent_memo()->stats().extents, 2u);
}

TEST(ExtentMemoTest, StaleIdentityIsRecomputedNotTrusted) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const SourceCatalog catalog = CatalogWith("VLDB");
  CatalogWrapper wrapper;
  const Capability& venues = Owned(*mediator, "Venues");
  ASSERT_NE(venues.identity, nullptr);
  EXPECT_EQ(Fetched(wrapper, venues, catalog), Oracle(venues, catalog));

  // Edit a copy's rule but keep its (now stale) identity.
  Capability edited = venues;
  edited.view = MustParse(
      "<vi(P') entry {<V' year W'>}> :- <P' publication {<V' year W'>}>@db",
      "Venues");
  ASSERT_EQ(edited.identity, venues.identity);
  EXPECT_FALSE(edited.identity->Describes(edited));
  EXPECT_NE(ViewIdentityFingerprint(edited), ViewIdentityFingerprint(venues));
  EXPECT_EQ(Fetched(wrapper, edited, catalog), Oracle(edited, catalog));
  EXPECT_NE(Oracle(edited, catalog), Oracle(venues, catalog));
}

TEST(ExtentMemoTest, FaultSchedulesStillFireOncePerFetchAttempt) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const SourceCatalog catalog = CatalogWith("VLDB");
  const Capability& a = Owned(*mediator, "MirrorA");
  const Capability& venues = Owned(*mediator, "Venues");
  const Capability& b = Owned(*mediator, "MirrorB");
  CatalogWrapper base;
  // Warm the memo so every fetch below is a memo hit.
  for (const Capability* cap : {&a, &b, &venues}) {
    ASSERT_TRUE(base.Fetch(*cap, catalog).ok());
  }

  FaultInjector injector(&base, /*seed=*/3);
  FaultSchedule unavailable;
  unavailable.scripted = {Fault::Unavailable(), Fault::Unavailable()};
  injector.SetSchedule("MirrorA", unavailable);
  FaultSchedule flaky;
  flaky.steady_state = Fault::Flaky(1.0);
  injector.SetSchedule("MirrorB", flaky);
  FaultSchedule truncated;
  truncated.steady_state = Fault::Truncated(1);
  injector.SetSchedule("Venues", truncated);

  EXPECT_EQ(injector.Fetch(a, catalog).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(injector.Fetch(a, catalog).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(Fetched(injector, a, catalog), Oracle(a, catalog));
  EXPECT_EQ(injector.calls("MirrorA"), 3u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(injector.Fetch(b, catalog).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(injector.calls("MirrorB"), 3u);

  for (int i = 0; i < 2; ++i) {
    auto cut = injector.Fetch(venues, catalog);
    ASSERT_TRUE(cut.ok()) << cut.status();
    EXPECT_FALSE(cut->complete);
    EXPECT_EQ(cut->data.roots().size(), 1u);
  }
  EXPECT_EQ(injector.calls("Venues"), 2u);
  // Truncation cut the injector's copy, never the memoized extent.
  EXPECT_EQ(Fetched(base, venues, catalog), Oracle(venues, catalog));
  EXPECT_GT(catalog.extent_memo()->stats().hits, 0u);
}

TEST(ExtentMemoTest, HedgeRenamingNeverMutatesTheSharedExtent) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const SourceCatalog catalog = CatalogWith("VLDB");
  const TslQuery query = MustParse(
      "<f(P) pub yes> :- <P publication {<X title Z>}>@db", "Titles");
  auto oracle = Evaluate(query, catalog);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  ResiliencePolicy resilience_policy;
  resilience_policy.hedge.enabled = true;
  resilience_policy.hedge.min_samples = 100;
  resilience_policy.hedge.default_delay_ticks = 1;
  ResilienceRegistry resilience(resilience_policy);
  uint64_t hedge_wins = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    CatalogWrapper base;
    VirtualClock clock;
    FaultInjector injector(&base, seed, &clock);
    FaultSchedule slow;
    slow.steady_state = Fault::SlowBy(10);
    // Both mirrors are slow on alternate seeds, so whichever the plan
    // uses first is hedged to the other.
    injector.SetSchedule(seed % 2 == 0 ? "MirrorA" : "MirrorB", slow);
    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.seed = seed;
    policy.resilience = &resilience;
    auto answer = mediator->Answer(query, catalog, policy);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(Render(answer->result), Render(*oracle));
    hedge_wins += answer->report.hedge_wins;
  }
  EXPECT_GT(hedge_wins, 0u);
  // The winning backups were renamed copies; the memoized extents still
  // carry their own names and bytes.
  CatalogWrapper base;
  for (const char* name : {"MirrorA", "MirrorB"}) {
    const Capability& cap = Owned(*mediator, name);
    EXPECT_EQ(Fetched(base, cap, catalog), Oracle(cap, catalog)) << name;
  }
}

TEST(ExtentMemoTest, ConcurrentFetchesMatchTheOracle) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const SourceCatalog catalog = CatalogWith("VLDB");
  std::vector<const Capability*> caps;
  std::vector<std::string> expected;
  for (const char* name : {"MirrorA", "MirrorB", "Venues"}) {
    caps.push_back(&Owned(*mediator, name));
    expected.push_back(Oracle(*caps.back(), catalog));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      CatalogWrapper wrapper;
      for (int i = 0; i < 30; ++i) {
        const size_t v = static_cast<size_t>(t + i) % caps.size();
        auto fetched = wrapper.Fetch(*caps[v], catalog);
        if (!fetched.ok() || Render(fetched->data) != expected[v]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ExtentMemo::Stats stats = catalog.extent_memo()->stats();
  EXPECT_EQ(stats.extents, caps.size());
  EXPECT_EQ(stats.hits + stats.misses, 8u * 30u);
}

TEST(ExtentMemoTest, ServingAcrossDataPublishesMatchesTheOracle) {
  auto mediator = Mediator::Make(Sources());
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  const char* venues[2] = {"VLDB", "SIGMOD"};
  const std::vector<TslQuery> queries = {
      SigmodQuery(),
      MustParse("<f(P) pub yes> :- <P publication {<X title Z>}>@db",
                "Titles")};
  // Every answer must be the oracle's over one of the two data versions;
  // the Sigmod query tells them apart.
  std::vector<std::set<std::string>> acceptable(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const char* venue : venues) {
      auto oracle = Evaluate(queries[q], CatalogWith(venue));
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      acceptable[q].insert(Render(*oracle));
    }
  }
  ASSERT_EQ(acceptable[0].size(), 2u);
  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 512;
  QueryServer server(std::move(*mediator), CatalogWith(venues[0]), options);

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 1; !done.load(); ++i) {
      server.UpdateCatalog(Publications(venues[i % 2]));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 40; ++r) {
        const size_t q = static_cast<size_t>(c + r) % queries.size();
        ServeOptions serve;
        serve.seed = static_cast<uint64_t>(c * 100 + r);
        auto submitted = server.Submit(queries[q], serve);
        if (!submitted.ok()) continue;  // admission control may reject
        Result<ServeResponse> response = submitted->get();
        if (!response.ok() ||
            acceptable[q].count(Render(response->answer.result)) == 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  publisher.join();
  server.Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(server.stats().catalog_swaps, 0u);
}

}  // namespace
}  // namespace tslrw
