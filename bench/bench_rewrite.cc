// CL-EXP-CAND (\S5.1 + \S3.4): "Step 2 can generate an exponential number
// of candidate rewritings", and the \S3.4 cover heuristic "can
// substantially improve" the algorithm. We sweep the number of query
// conditions k and views v, reporting candidates generated/tested with the
// heuristic ON vs OFF — the ablation for the paper's one explicit
// algorithmic design choice — plus end-to-end rewriting latency.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "catalog/compiler.h"
#include "common/virtual_clock.h"
#include "eval/evaluator.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oem/parser.h"
#include "rewrite/contained.h"
#include "rewrite/minimize.h"
#include "rewrite/rewriter.h"

namespace tslrw::bench {
namespace {

/// One single-arm view per query condition: `<vi(P') oi {...li...}>`.
std::vector<TslQuery> MakePerArmViews(int k) {
  std::vector<TslQuery> views;
  for (int i = 0; i < k; ++i) {
    views.push_back(MustParse(
        StrCat("<v", i, "(P') o", i, " {<w", i, "(X') m U'>}> :- ",
               "<P' rec {<X' l", i, " U'>}>@db"),
        StrCat("V", i)));
  }
  return views;
}

void RunRewrite(benchmark::State& state, bool heuristic) {
  const int k = static_cast<int>(state.range(0));
  TslQuery query = MakeStarQuery(k);
  std::vector<TslQuery> views = MakePerArmViews(k);
  RewriteOptions options;
  options.use_cover_heuristic = heuristic;
  options.prune_dominated = false;
  options.parallelism = 1;  // one thread (the pipeline inline), on any host
  RewriteResult last;
  for (auto _ : state) {
    auto result = RewriteQuery(query, views, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = std::move(result).value();
    benchmark::DoNotOptimize(last);
  }
  state.counters["candidates"] =
      static_cast<double>(last.candidates_generated);
  state.counters["tested"] = static_cast<double>(last.candidates_tested);
  state.counters["rewritings"] = static_cast<double>(last.rewritings.size());
}

void BM_RewriteHeuristicOn(benchmark::State& state) {
  RunRewrite(state, /*heuristic=*/true);
}
BENCHMARK(BM_RewriteHeuristicOn)->DenseRange(1, 6);

void BM_RewriteHeuristicOff(benchmark::State& state) {
  RunRewrite(state, /*heuristic=*/false);
}
BENCHMARK(BM_RewriteHeuristicOff)->DenseRange(1, 6);

void BM_RewriteObserved(benchmark::State& state) {
  // The observability tax on the CL-EXP-CAND star, measured as a *paired*
  // comparison: each iteration runs the plain and the instrumented
  // rewrite back-to-back (alternating which goes first) and accumulates
  // their wall times separately. Interleaving cancels the slow load
  // drift of a shared host that block-at-a-time comparison of two
  // benchmark rows cannot — single-pass A/B rows here swing ±20% in
  // either direction, dwarfing the real tax. check_bench_regression
  // --overhead gates the exported `overhead` ratio at <5%.
  const int k = static_cast<int>(state.range(0));
  TslQuery query = MakeStarQuery(k);
  std::vector<TslQuery> views = MakePerArmViews(k);
  MetricRegistry metrics;  // long-lived, like a server's registry
  RewriteOptions plain;
  plain.use_cover_heuristic = true;
  plain.prune_dominated = false;
  plain.parallelism = 1;
  RewriteOptions observed = plain;
  observed.metrics = &metrics;
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds plain_ns{0};
  std::chrono::nanoseconds observed_ns{0};
  auto run_plain = [&] {
    const auto start = Clock::now();
    auto result = RewriteQuery(query, views, plain);
    plain_ns += Clock::now() - start;
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  };
  auto run_observed = [&] {
    VirtualClock clock;  // fresh tracer per iteration, like one per request
    Tracer tracer(&clock);
    observed.tracer = &tracer;
    const auto start = Clock::now();
    auto result = RewriteQuery(query, views, observed);
    observed_ns += Clock::now() - start;
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  };
  bool plain_first = true;
  for (auto _ : state) {
    if (plain_first) {
      run_plain();
      run_observed();
    } else {
      run_observed();
      run_plain();
    }
    plain_first = !plain_first;
  }
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["plain_us"] =
      static_cast<double>(plain_ns.count()) / 1e3 / iters;
  state.counters["observed_us"] =
      static_cast<double>(observed_ns.count()) / 1e3 / iters;
  state.counters["overhead"] =
      plain_ns.count() > 0
          ? static_cast<double>(observed_ns.count()) /
                static_cast<double>(plain_ns.count())
          : 0.0;
}
BENCHMARK(BM_RewriteObserved)->DenseRange(1, 6);

void RunParallelStar(benchmark::State& state, bool heuristic) {
  // CL-PAR: the k=7 CL-EXP-CAND star under the parallel verification
  // pipeline, swept over worker counts. All 2^7 - 1 candidates compose to
  // α-equivalent rule sets, so the verdict memo answers all but the first
  // \S4 test per worker — on a single-core host the whole speedup is
  // sharing, on a multi-core host threads add to it.
  const size_t workers = static_cast<size_t>(state.range(0));
  const int k = 7;
  TslQuery query = MakeStarQuery(k);
  std::vector<TslQuery> views = MakePerArmViews(k);
  RewriteOptions options;
  options.use_cover_heuristic = heuristic;
  options.prune_dominated = false;
  options.parallelism = workers;
  RewriteResult last;
  for (auto _ : state) {
    auto result = RewriteQuery(query, views, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = std::move(result).value();
    benchmark::DoNotOptimize(last);
  }
  state.counters["candidates"] =
      static_cast<double>(last.candidates_generated);
  state.counters["chase_hits"] = static_cast<double>(last.chase_cache_hits);
  state.counters["equiv_hits"] = static_cast<double>(last.equiv_cache_hits);
  state.counters["batches"] = static_cast<double>(last.batches_dispatched);
  state.counters["verify_us"] = static_cast<double>(last.verify_wall_ticks);
}

void BM_RewriteParallelCoverOn(benchmark::State& state) {
  RunParallelStar(state, /*heuristic=*/true);
}
BENCHMARK(BM_RewriteParallelCoverOn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RewriteParallelCoverOff(benchmark::State& state) {
  RunParallelStar(state, /*heuristic=*/false);
}
BENCHMARK(BM_RewriteParallelCoverOff)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RewriteManyIrrelevantViews(benchmark::State& state) {
  // Robustness to catalog size: v irrelevant views next to one useful one.
  const int v = static_cast<int>(state.range(0));
  TslQuery query = MakeStarQuery(2);
  std::vector<TslQuery> views = MakePerArmViews(2);
  for (int i = 0; i < v; ++i) {
    views.push_back(MustParse(
        StrCat("<z", i, "(P') zz {<y", i, "(X') m U'>}> :- ",
               "<P' zebra", i, " {<X' q U'>}>@db"),
        StrCat("Z", i)));
  }
  for (auto _ : state) {
    auto result = RewriteQuery(query, views);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(v);
}
BENCHMARK(BM_RewriteManyIrrelevantViews)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity();

void BM_RewriteIndexed(benchmark::State& state) {
  // Catalog-scale pruning through the compiled structural view index
  // (src/catalog): v views of which only two can map into the query. The
  // index is compiled once, offline — outside the timed loop, as a
  // mediator would at startup — and each iteration runs the full scan and
  // the indexed rewrite back-to-back (alternating order, same pairing
  // trick as BM_RewriteObserved) so the exported `speedup` ratio is
  // meaningful on a noisy host. The indexed path must stay sublinear in v:
  // its per-query cost is the signature probe plus the two admitted views,
  // while the full scan attempts a mapping per view.
  const int v = static_cast<int>(state.range(0));
  TslQuery query = MakeStarQuery(2);
  std::vector<TslQuery> views = MakePerArmViews(2);
  for (int i = 0; i < v - 2; ++i) {
    views.push_back(MustParse(
        StrCat("<z", i, "(P') zz {<y", i, "(X') m U'>}> :- ",
               "<P' zebra", i, " {<X' q U'>}>@db"),
        StrCat("Z", i)));
  }
  auto catalog = CompileCatalog(DescribeViews(views), nullptr);
  if (!catalog.ok()) {
    state.SkipWithError(catalog.status().ToString().c_str());
    return;
  }
  RewriteOptions full;
  full.prune_dominated = false;
  full.parallelism = 1;
  RewriteOptions indexed = full;
  indexed.view_index = catalog->get();
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds full_ns{0};
  std::chrono::nanoseconds indexed_ns{0};
  size_t rewritings = 0;
  auto run = [&](const RewriteOptions& options,
                 std::chrono::nanoseconds* sink) {
    const auto start = Clock::now();
    auto result = RewriteQuery(query, views, options);
    *sink += Clock::now() - start;
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    rewritings = result.ok() ? result->rewritings.size() : 0;
    benchmark::DoNotOptimize(result);
  };
  bool full_first = true;
  for (auto _ : state) {
    if (full_first) {
      run(full, &full_ns);
      run(indexed, &indexed_ns);
    } else {
      run(indexed, &indexed_ns);
      run(full, &full_ns);
    }
    full_first = !full_first;
  }
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["full_us"] =
      static_cast<double>(full_ns.count()) / 1e3 / iters;
  state.counters["indexed_us"] =
      static_cast<double>(indexed_ns.count()) / 1e3 / iters;
  state.counters["speedup"] =
      indexed_ns.count() > 0
          ? static_cast<double>(full_ns.count()) /
                static_cast<double>(indexed_ns.count())
          : 0.0;
  state.counters["rewritings"] = static_cast<double>(rewritings);
  state.SetComplexityN(v);
}
BENCHMARK(BM_RewriteIndexed)->Arg(10)->Arg(100)->Arg(1000)->Complexity();

void BM_CompileCatalog(benchmark::State& state) {
  // The offline cost the index trades for: whole-catalog compilation at v
  // views, chase + signatures + pairwise containment lattice.
  const int v = static_cast<int>(state.range(0));
  std::vector<TslQuery> views = MakePerArmViews(2);
  for (int i = 0; i < v - 2; ++i) {
    views.push_back(MustParse(
        StrCat("<z", i, "(P') zz {<y", i, "(X') m U'>}> :- ",
               "<P' zebra", i, " {<X' q U'>}>@db"),
        StrCat("Z", i)));
  }
  auto sources = DescribeViews(views);
  for (auto _ : state) {
    auto catalog = CompileCatalog(sources, nullptr);
    if (!catalog.ok()) {
      state.SkipWithError(catalog.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(catalog);
  }
}
BENCHMARK(BM_CompileCatalog)->Arg(10)->Arg(100);

void BM_RewriteAmbiguousViews(benchmark::State& state) {
  // A wildcard view against k wildcard arms: k mappings per view path; the
  // candidate space explodes and the verifier prunes — worst case of the
  // whole pipeline (kept small).
  const int k = static_cast<int>(state.range(0));
  std::vector<std::string> body;
  for (int i = 0; i < k; ++i) {
    body.push_back(StrCat("<P rec {<X", i, " Y", i, " Z", i, ">}>@db"));
  }
  TslQuery query = MustParse(
      StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
  TslQuery view = MakeWildcardView(1, "V");
  RewriteResult last;
  for (auto _ : state) {
    auto result = RewriteQuery(query, {view});
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = std::move(result).value();
  }
  state.counters["mappings"] = static_cast<double>(last.mappings_found);
  state.counters["tested"] = static_cast<double>(last.candidates_tested);
}
BENCHMARK(BM_RewriteAmbiguousViews)->DenseRange(1, 4);

void BM_MaximallyContainedRewriting(benchmark::State& state) {
  // The \S7 extension on k per-arm views where only j < k arms have views:
  // the contained search still returns the partial answer plans.
  const int k = static_cast<int>(state.range(0));
  TslQuery query = MakeStarQuery(k);
  std::vector<TslQuery> views = MakePerArmViews(k - 1);  // one arm uncovered
  RewriteOptions options;
  size_t rules = 0;
  for (auto _ : state) {
    auto result = FindMaximallyContainedRewriting(query, views, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    rules = result->rewriting.rules.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_MaximallyContainedRewriting)->DenseRange(2, 5);

void BM_MinimizeRedundantStar(benchmark::State& state) {
  // k arms where only one is non-redundant: minimization strips the rest.
  const int k = static_cast<int>(state.range(0));
  std::vector<std::string> body{"<P rec {<X l0 u0>}>@db"};
  for (int i = 1; i < k; ++i) {
    body.push_back(StrCat("<P rec {<X", i, " l0 W", i, ">}>@db"));
  }
  TslQuery query = MustParse(
      StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
  size_t conditions = 0;
  for (auto _ : state) {
    auto minimized = MinimizeQuery(query);
    if (!minimized.ok()) {
      state.SkipWithError(minimized.status().ToString().c_str());
    }
    conditions = minimized->body.size();
    benchmark::DoNotOptimize(minimized);
  }
  state.counters["conditions"] = static_cast<double>(conditions);
}
BENCHMARK(BM_MinimizeRedundantStar)->RangeMultiplier(2)->Range(2, 16);

// --- CL-IR (docs/IR.md): compiled plan-set execution ------------------------
//
// The k-arm CL-EXP-CAND star rewritten over its per-arm views fans out into
// 2^k genuine plans once each condition may read either its view or an
// α-equivalent replica mirror. The tree walker re-matches every condition
// of every plan from scratch; the compiled IR hoists each condition into a
// match unit, merges α-equivalent units across plans (CSE keys on
// source-scoped fingerprints, so a view and its mirror stay distinct
// units), and materializes each unit once per execution. BM_EvalIR runs
// both backends *paired-interleaved* (same discipline as
// BM_RewriteObserved) and exports the `speedup` ratio that
// check_bench_regression --speedup gates at >= 1.5x for the full pass
// stack on the k=7 workload.

/// Star data: \p roots `rec` roots with \p fanout children per arm — one
/// child carries the query's `u<i>` constant, the rest junk values.
SourceCatalog MakeStarData(int k, int roots, int fanout) {
  std::string text = "database db {\n";
  for (int r = 0; r < roots; ++r) {
    StrAppend(&text, "<p", r, " rec {\n");
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < fanout; ++j) {
        StrAppend(&text, "  <c", r, "_", i, "_", j, " l", i, " ",
                  j == 0 ? StrCat("u", i) : StrCat("x", j), ">\n");
      }
    }
    StrAppend(&text, "}>\n");
  }
  StrAppend(&text, "}");
  auto db = ParseOemDatabase(text);
  if (!db.ok()) {
    std::fprintf(stderr, "bench star data failed to parse: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  SourceCatalog catalog;
  catalog.Put(std::move(db).ValueOrDie());
  return catalog;
}

struct PlanSetWorkload {
  std::vector<TslQuery> plans;
  SourceCatalog view_results;
};

/// Rewrites the k-arm star over its per-arm views, then fans the base
/// rewriting out into 2^k plans by flipping each condition between the
/// view and its mirror replica per bit of the plan index. Both backends
/// execute the identical plan vector over the identical materialized
/// view results.
PlanSetWorkload MakePlanSetWorkload(int k) {
  PlanSetWorkload w;
  TslQuery query = MakeStarQuery(k);
  std::vector<TslQuery> views = MakePerArmViews(k);
  SourceCatalog data = MakeStarData(k, /*roots=*/8, /*fanout=*/16);
  for (const TslQuery& view : views) {
    auto result = MaterializeView(view, data);
    if (!result.ok()) {
      std::fprintf(stderr, "bench view failed to materialize: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    OemDatabase mirror = *result;
    mirror.set_name(result->name() + "m");
    w.view_results.Put(std::move(result).ValueOrDie());
    w.view_results.Put(std::move(mirror));
  }
  RewriteOptions options;
  options.use_cover_heuristic = true;
  options.prune_dominated = false;
  options.parallelism = 1;
  auto rewritten = RewriteQuery(query, views, options);
  if (!rewritten.ok() || rewritten->rewritings.empty()) {
    std::fprintf(stderr, "bench star rewrite produced no plans\n");
    std::abort();
  }
  const TslQuery& base = rewritten->rewritings.front();
  for (int j = 0; j < (1 << k); ++j) {
    TslQuery plan = base;
    plan.name = StrCat("plan", j);
    int arm = 0;
    for (Condition& condition : plan.body) {
      if ((j >> (arm++ % k)) & 1) condition.source += "m";
    }
    w.plans.push_back(std::move(plan));
  }
  return w;
}

std::string RenderAnswer(const OemDatabase& db) {
  return StrCat(db.name(), "\n", db.ToString());
}

void BM_EvalTree(benchmark::State& state) {
  // The tree-walking baseline: per-plan Evaluate (the src/eval oracle)
  // over the materialized view results, what Mediator::Execute did after
  // view execution before the IR became its only engine.
  const int k = static_cast<int>(state.range(0));
  PlanSetWorkload w = MakePlanSetWorkload(k);
  for (auto _ : state) {
    for (const TslQuery& plan : w.plans) {
      auto answer = Evaluate(plan, w.view_results);
      if (!answer.ok()) {
        state.SkipWithError(answer.status().ToString().c_str());
      }
      benchmark::DoNotOptimize(answer);
    }
  }
  state.counters["plans"] = static_cast<double>(w.plans.size());
}
BENCHMARK(BM_EvalTree)->Arg(3)->Arg(5)->Arg(7);

void BM_EvalIR(benchmark::State& state) {
  // Pass ablation: arg 0 = no passes, 1 = +hoist, 2 = +CSE, 3 = +copy
  // elision (the shipped default stack). k is pinned to the 2^7-plan
  // CL-EXP-CAND workload the CI speedup gate reads. Compilation sits
  // outside the timed region: this row isolates the interpreter against
  // the tree walker, and the `plan.compile` span cost (which the mediator
  // now pays per execution) is reported separately in EXPERIMENTS.md.
  const int level = static_cast<int>(state.range(0));
  const int k = 7;
  PlanSetWorkload w = MakePlanSetWorkload(k);
  IrPassOptions passes;
  passes.hoist_invariant_submatches = level >= 1;
  passes.common_subplan_elimination = level >= 2;
  passes.copy_elision = level >= 3;
  PlanCompiler compiler(passes);
  auto program = compiler.CompilePlans(w.plans);
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  // Byte-identity first: the speedup below is meaningless unless the
  // compiled program computes the tree walker's exact answers.
  {
    auto ir = ExecuteIrPerSegment(**program, w.view_results);
    if (!ir.ok()) {
      state.SkipWithError(ir.status().ToString().c_str());
      return;
    }
    for (size_t i = 0; i < w.plans.size(); ++i) {
      auto tree = Evaluate(w.plans[i], w.view_results);
      if (!tree.ok()) {
        state.SkipWithError(tree.status().ToString().c_str());
        return;
      }
      if (RenderAnswer((*ir)[i]) != RenderAnswer(*tree)) {
        state.SkipWithError("IR answer diverges from the tree walker");
        return;
      }
    }
  }
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds tree_ns{0};
  std::chrono::nanoseconds ir_ns{0};
  auto run_tree = [&] {
    const auto start = Clock::now();
    for (const TslQuery& plan : w.plans) {
      auto answer = Evaluate(plan, w.view_results);
      if (!answer.ok()) {
        state.SkipWithError(answer.status().ToString().c_str());
      }
      benchmark::DoNotOptimize(answer);
    }
    tree_ns += Clock::now() - start;
  };
  auto run_ir = [&] {
    const auto start = Clock::now();
    auto answers = ExecuteIrPerSegment(**program, w.view_results);
    if (!answers.ok()) {
      state.SkipWithError(answers.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(answers);
    ir_ns += Clock::now() - start;
  };
  bool tree_first = true;
  for (auto _ : state) {
    if (tree_first) {
      run_tree();
      run_ir();
    } else {
      run_ir();
      run_tree();
    }
    tree_first = !tree_first;
  }
  const double iters = static_cast<double>(std::max<int64_t>(
      static_cast<int64_t>(state.iterations()), 1));
  state.counters["tree_us"] =
      static_cast<double>(tree_ns.count()) / 1e3 / iters;
  state.counters["ir_us"] = static_cast<double>(ir_ns.count()) / 1e3 / iters;
  state.counters["speedup"] =
      ir_ns.count() > 0 ? static_cast<double>(tree_ns.count()) /
                              static_cast<double>(ir_ns.count())
                        : 0.0;
  state.counters["plans"] = static_cast<double>(w.plans.size());
  state.counters["ops"] = static_cast<double>((*program)->ops.size());
}
BENCHMARK(BM_EvalIR)->DenseRange(0, 3);

void BM_RewriteSinglePathSpecialCase(benchmark::State& state) {
  // The \S3.1 algorithm: one condition, one view — the fast path.
  TslQuery query = MustParse(
      "<f(P) stanford yes> :- <P p {<X Y leland>}>@db", "Q3");
  TslQuery view = MustParse(
      "<g(P') p {<pp(P',Y') pr Y'> <h(X') v Z'>}> :- <P' p {<X' Y' Z'>}>@db",
      "V1");
  for (auto _ : state) {
    auto result = RewriteSinglePath(query, view);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RewriteSinglePathSpecialCase);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
