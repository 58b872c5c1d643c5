// The verification pipeline's contract (docs/PARALLELISM.md): RewriteQuery
// at every parallelism — 1 (inline) and 2, 4, 8 (worker pool) — must be
// byte-identical to the memo-free reference verifier in src/testing — same
// rewritings in the same order with the same names, same candidate
// counters, same truncation flag, same error statuses — for every input.
// The k=5 per-arm stress cases double as the TSan workload (the CI
// thread-sanitize job runs the whole suite under TSan).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "fixtures.h"
#include "rewrite/rewriter.h"
#include "testing/random_rules.h"
#include "testing/reference_rewriter.h"

namespace tslrw {
namespace {

using testing::MustParse;

std::string RenderRewritings(const RewriteResult& r) {
  std::string out;
  for (const TslQuery& q : r.rewritings) out += q.ToString() + "\n";
  return out;
}

/// One single-arm view per star-query condition (the CL-EXP-CAND shape).
std::vector<TslQuery> PerArmViews(int k) {
  std::vector<TslQuery> views;
  for (int i = 0; i < k; ++i) {
    views.push_back(MustParse(
        StrCat("<v", i, "(P') o", i, " {<w", i, "(X') m U'>}> :- ",
               "<P' rec {<X' l", i, " U'>}>@db"),
        StrCat("V", i)));
  }
  return views;
}

TslQuery StarQuery(int k) {
  std::vector<std::string> body;
  for (int i = 0; i < k; ++i) {
    body.push_back(StrCat("<P rec {<X", i, " l", i, " u", i, ">}>@db"));
  }
  return MustParse(StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
}

/// Runs the memo-free reference and RewriteQuery at parallelism {1, 2, 4,
/// 8}; every output the determinism guarantee covers must match the
/// reference byte-for-byte. (chase/equiv cache hits, batches, and wall
/// ticks are the pipeline's own diagnostics and deliberately not compared.)
void ExpectMatchesReference(const TslQuery& query,
                            const std::vector<TslQuery>& views,
                            RewriteOptions options = {}) {
  Result<RewriteResult> reference =
      testing::ReferenceRewriteQuery(query, views, options);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    options.parallelism = workers;
    Result<RewriteResult> piped = RewriteQuery(query, views, options);
    SCOPED_TRACE(StrCat("parallelism=", workers, " query=", query.ToString()));
    ASSERT_EQ(reference.ok(), piped.ok())
        << (reference.ok() ? piped.status() : reference.status()).ToString();
    if (!reference.ok()) {
      EXPECT_EQ(reference.status().ToString(), piped.status().ToString());
      continue;
    }
    EXPECT_EQ(RenderRewritings(*reference), RenderRewritings(*piped));
    EXPECT_EQ(reference->mappings_found, piped->mappings_found);
    EXPECT_EQ(reference->candidates_generated, piped->candidates_generated);
    EXPECT_EQ(reference->candidates_tested, piped->candidates_tested);
    EXPECT_EQ(reference->truncated, piped->truncated);
  }
}

TEST(ParallelRewriteTest, PaperFixturesAreByteIdentical) {
  // Every numbered paper query against (V1): the suite the rest of the
  // repo validates the rewriting algorithm itself on.
  const std::vector<std::string_view> fixtures = {
      testing::kQ1,  testing::kQ2,  testing::kQ3,  testing::kQ5,
      testing::kQ7,  testing::kQ9,  testing::kQ10, testing::kQ11,
      testing::kQ12, testing::kQ13, testing::kQ14,
  };
  std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  for (std::string_view text : fixtures) {
    ExpectMatchesReference(MustParse(text), views);
  }
}

TEST(ParallelRewriteTest, FixturesOverViewBodiesAreByteIdentical) {
  // (Q4)/(Q6)/(Q8) have @V1 conditions — candidates over the view itself.
  std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  for (std::string_view text :
       {testing::kQ4, testing::kQ4n, testing::kQ6, testing::kQ8}) {
    ExpectMatchesReference(MustParse(text), views);
  }
}

TEST(ParallelRewriteTest, DtdEnabledRewritingIsByteIdentical) {
  // Example 3.5: the rewriting of (Q7) exists only under the DTD — the
  // constraint-exempt chase path through the memo must agree too.
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).value());
  RewriteOptions options;
  options.constraints = &constraints;
  ExpectMatchesReference(MustParse(testing::kQ7),
                         {MustParse(testing::kV1, "V1")}, options);
}

TEST(ParallelRewriteTest, RandomRuleSetsAreByteIdentical) {
  std::vector<uint64_t> seeds = {3, 17, 99};
  for (uint64_t seed = 100; seeds.size() < 25; ++seed) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    testing::RandomRules rules(seed, 4, 4, "l0");
    std::vector<TslQuery> views = {rules.View("V1", "db"),
                                   rules.CopyView("V2", "db"),
                                   rules.DeepView("V3", "db")};
    for (int i = 0; i < 4; ++i) {
      ExpectMatchesReference(rules.Query("Q", "db"), views);
    }
  }
}

TEST(ParallelRewriteTest, PerArmStarIsByteIdenticalWithAndWithoutPruning) {
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  ExpectMatchesReference(query, views, options);
  options.prune_dominated = false;
  ExpectMatchesReference(query, views, options);
  options.use_cover_heuristic = false;
  ExpectMatchesReference(StarQuery(3), PerArmViews(3), options);
}

TEST(ParallelRewriteTest, VariableWiringSeparatesSameShapeCandidates) {
  // The view drops U', so a rewriting may use it for the arm whose value
  // is joined on nothing (Y) but not for the arm whose value is joined
  // with the third condition (X, through U). The candidates {V(X), Y-arm,
  // m-arm} and {X-arm, V(Y), m-arm} have the same condition shapes and
  // differ only in how their variables are shared — so only the wiring
  // part of the candidate memo's key tells their verdicts apart.
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P r {<X l U>}>@db AND <P r {<Y l V>}>@db AND "
      "<P r {<Z m U>}>@db",
      "Q");
  std::vector<TslQuery> views = {
      MustParse("<v(P') o {<w(X') k yes>}> :- <P' r {<X' l U'>}>@db", "V")};
  RewriteOptions options;
  ExpectMatchesReference(query, views, options);
  options.prune_dominated = false;
  ExpectMatchesReference(query, views, options);
}

TEST(ParallelRewriteTest, TruncationIsByteIdentical) {
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;
  options.max_candidates = 10;
  ExpectMatchesReference(query, views, options);

  // strict_limits: the ResourceExhausted message embeds
  // candidates_generated, so byte-identical errors require byte-identical
  // counters at the cut.
  options.strict_limits = true;
  ExpectMatchesReference(query, views, options);
}

TEST(ParallelRewriteTest, StatefulShouldStopIsByteIdentical) {
  // should_stop is polled on the enumerating thread only, once per emitted
  // candidate in enumeration order — a counting hook therefore fires at
  // the same candidate in the reference and at every parallelism.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;
  size_t polls = 0;
  options.should_stop = [&polls] { return ++polls > 12; };
  Result<RewriteResult> reference =
      testing::ReferenceRewriteQuery(query, views, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(reference->truncated);
  EXPECT_EQ(reference->candidates_generated, 12u);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(StrCat("parallelism=", workers));
    polls = 0;
    options.parallelism = workers;
    Result<RewriteResult> result = RewriteQuery(query, views, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->truncated);
    EXPECT_EQ(result->candidates_generated, 12u);
    EXPECT_EQ(RenderRewritings(*reference), RenderRewritings(*result));
    EXPECT_EQ(reference->candidates_tested, result->candidates_tested);
  }
}

TEST(ParallelRewriteTest, SharedWorkCountersReportTheSharing) {
  // CL-EXP-CAND shape: all 2^k - 1 candidates compose to α-equivalent rule
  // sets, so at most one verdict per worker is computed from scratch; the
  // rest must come from the memo. Inline, the counts are exact: the first
  // verdict is computed, every later one is a memo hit, and no batch goes
  // to a pool.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;

  options.parallelism = 1;
  Result<RewriteResult> inline_run = RewriteQuery(query, views, options);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  EXPECT_EQ(inline_run->candidates_generated, 31u);
  EXPECT_EQ(inline_run->candidates_tested, 31u);
  EXPECT_EQ(inline_run->equiv_cache_hits, inline_run->candidates_tested - 1);
  EXPECT_EQ(inline_run->chase_cache_hits, 0u);
  EXPECT_EQ(inline_run->batches_dispatched, 0u);

  options.parallelism = 4;
  Result<RewriteResult> parallel = RewriteQuery(query, views, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->candidates_generated, 31u);
  EXPECT_GE(parallel->batches_dispatched, 1u);
  EXPECT_GE(parallel->equiv_cache_hits, 1u);
}

TEST(ParallelRewriteTest, StressPerArmStarAtHighParallelism) {
  // The TSan workload: many batches, memo contention, dominance pruning,
  // and the bounded in-flight window all active at once.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;
  Result<RewriteResult> reference =
      testing::ReferenceRewriteQuery(query, views, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  options.parallelism = 8;
  for (int round = 0; round < 4; ++round) {
    Result<RewriteResult> parallel = RewriteQuery(query, views, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(RenderRewritings(*reference), RenderRewritings(*parallel));
    EXPECT_EQ(reference->candidates_tested, parallel->candidates_tested);
  }
}

}  // namespace
}  // namespace tslrw
