#include "rewrite/rewriter.h"

#include <chrono>
#include <thread>

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/candidate.h"
#include "rewrite/parallel.h"
#include "rewrite/view_index.h"
#include "tsl/normal_form.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

/// Resolves RewriteOptions::parallelism: 0 means hardware concurrency.
size_t ResolveParallelism(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedUs(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
}

/// Chases the query and every view; NotOk on hard errors. An unsatisfiable
/// query is surfaced as an empty optional; unsatisfiable views (always
/// empty) are silently dropped.
struct ChasedInputs {
  TslQuery query;
  std::vector<TslQuery> views;
  bool query_unsatisfiable = false;
};

Result<ChasedInputs> ChaseInputs(const TslQuery& query,
                                 const std::vector<TslQuery>& views,
                                 const ChaseOptions& chase_options) {
  if (UsesRegexSteps(query)) {
    return Status::IllFormedQuery(
        "rewriting queries with regular path expressions (l+, **) is the "
        "paper's future work (\\S7); only plain TSL bodies are supported");
  }
  for (const TslQuery& view : views) {
    if (UsesRegexSteps(view)) {
      return Status::IllFormedQuery(
          StrCat("view ", view.name,
                 " uses regular path expressions; rewriting over such views "
                 "is unsupported (\\S7 future work)"));
    }
  }
  ChasedInputs out;
  Result<TslQuery> chased_query = ChaseQuery(query, chase_options);
  if (!chased_query.ok()) {
    if (!chased_query.status().IsUnsatisfiable()) {
      return chased_query.status();
    }
    out.query_unsatisfiable = true;
    return out;
  }
  out.query = std::move(chased_query).value();
  for (const TslQuery& view : views) {
    TSLRW_RETURN_NOT_OK(ValidateQuery(view));
    if (view.name.empty()) {
      return Status::InvalidArgument(
          "views must be named; the name is the rewritten query's source");
    }
    Result<TslQuery> cv = ChaseQuery(view, chase_options);
    if (!cv.ok()) {
      if (cv.status().IsUnsatisfiable()) continue;  // view is always empty
      return cv.status();
    }
    out.views.push_back(std::move(cv).value());
  }
  return out;
}

/// The indexed replacement for ChaseInputs, taken when options.view_index
/// covers \p views: the query is chased as usual, but the per-view work is
/// answered from the compiled catalog — stored offline chase outcomes for
/// views whose structural signature admits a containment mapping into the
/// chased query, nothing for views the signature rules out. A covered
/// catalog has no regex, unnamed, or invalid views (the compiler refuses
/// to serve one), so the full scan's per-view checks cannot fire and
/// skipping them is unobservable; the result is byte-identical by the
/// signature soundness argument in docs/CATALOG.md.
Result<ChasedInputs> ChaseInputsIndexed(const TslQuery& query,
                                        const std::vector<TslQuery>& views,
                                        const ChaseOptions& chase_options,
                                        const ViewSetIndex& index,
                                        ViewProbeOutcome* outcome) {
  if (UsesRegexSteps(query)) {
    return Status::IllFormedQuery(
        "rewriting queries with regular path expressions (l+, **) is the "
        "paper's future work (\\S7); only plain TSL bodies are supported");
  }
  ChasedInputs out;
  Result<TslQuery> chased_query = ChaseQuery(query, chase_options);
  if (!chased_query.ok()) {
    if (!chased_query.status().IsUnsatisfiable()) {
      return chased_query.status();
    }
    out.query_unsatisfiable = true;
    return out;
  }
  out.query = std::move(chased_query).value();
  TSLRW_ASSIGN_OR_RETURN(
      std::optional<std::vector<TslQuery>> probed,
      index.ChasedViewsFor(out.query, views, chase_options, outcome));
  if (!probed.has_value()) {
    return Status::Internal(
        "view index declined a view set it claimed to cover");
  }
  out.views = std::move(*probed);
  return out;
}

}  // namespace

Result<RewriteResult> RewriteQuery(const TslQuery& query,
                                   const std::vector<TslQuery>& views,
                                   const RewriteOptions& options) {
  return RewriteQueryWith(query, views, options, &VerifyCandidates);
}

Result<RewriteResult> RewriteQueryWith(const TslQuery& query,
                                       const std::vector<TslQuery>& views,
                                       const RewriteOptions& options,
                                       CandidateVerifier verify) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  ScopedSpan rewrite_span(options.tracer, "rewrite");
  rewrite_span.Annotate("views", static_cast<uint64_t>(views.size()));
  CountIf(options.metrics, "rewrite.queries");
  RewriteResult result;
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  // The constraints describe the source data; candidate bodies contain
  // conditions over the views, whose answer objects may reuse source label
  // spellings (V1's head label is `p`) — exempt them.
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }
  // The fired-constraints sink is wired only while chasing the inputs, on
  // this thread: candidate chases run on worker threads under parallelism,
  // and excluding them everywhere keeps the result byte-identical across
  // parallelism levels (and the shared set race-free).
  ChaseOptions input_chase_options = chase_options;
  input_chase_options.fired_constraints = &result.fired_constraints;
  ScopedSpan chase_span(options.tracer, "rewrite.chase_inputs");
  const bool indexed =
      options.view_index != nullptr && options.view_index->CoversViews(views);
  ViewProbeOutcome probe;
  ChasedInputs inputs;
  if (indexed) {
    TSLRW_ASSIGN_OR_RETURN(
        inputs, ChaseInputsIndexed(query, views, input_chase_options,
                                   *options.view_index, &probe));
    CountIf(options.metrics, "catalog.index_probes");
    if (options.metrics != nullptr) {
      options.metrics->GetCounter("catalog.index_views_admitted")
          ->Increment(probe.admitted);
      options.metrics->GetCounter("catalog.index_views_skipped")
          ->Increment(probe.skipped);
    }
    chase_span.Annotate("index_probe", "hit");
    chase_span.Annotate("index_skipped", static_cast<uint64_t>(probe.skipped));
  } else {
    if (options.view_index != nullptr) {
      CountIf(options.metrics, "catalog.index_misses");
      chase_span.Annotate("index_probe", "miss");
    }
    TSLRW_ASSIGN_OR_RETURN(
        inputs, ChaseInputs(query, views, input_chase_options));
  }
  chase_span.Annotate("live_views", static_cast<uint64_t>(inputs.views.size()));
  chase_span.EndNow();
  if (inputs.query_unsatisfiable) {
    rewrite_span.Annotate("unsatisfiable", "true");
    CountIf(options.metrics, "rewrite.unsatisfiable_queries");
    result.query_unsatisfiable = true;
    return result;
  }
  const TslQuery& q = inputs.query;
  result.chased_query = q;

  // Step 1A: mappings from each view body into the query body, turned into
  // candidate atoms.
  ScopedSpan mappings_span(options.tracer, "rewrite.mappings");
  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, inputs.views, &result.mappings_found));
  for (const CandidateAtom& atom : atoms) {
    if (atom.is_view) result.views_touched.insert(atom.condition.source);
  }
  mappings_span.Annotate("mappings", static_cast<uint64_t>(result.mappings_found));
  mappings_span.Annotate("candidate_atoms", static_cast<uint64_t>(atoms.size()));
  mappings_span.EndNow();

  // Steps 1B-1C-2: assemble, chase, compose, and verify candidates. The
  // query side of every equivalence test is fixed: decompose it once.
  TSLRW_ASSIGN_OR_RETURN(
      EquivalenceTester tester,
      EquivalenceTester::Make(TslRuleSet::Single(q), chase_options));
  CandidateEnumerator enumerator(std::move(atoms), q.body.size(), options);
  const size_t workers = ResolveParallelism(options.parallelism);
  ScopedSpan search_span(options.tracer, "rewrite.search");
  search_span.Annotate("workers", static_cast<uint64_t>(workers));
  const auto verify_start = SteadyClock::now();
  bool complete = true;
  const Status failure = verify(q, inputs.views, chase_options, tester,
                                enumerator, options, workers, &result,
                                &complete);
  result.verify_wall_ticks = ElapsedUs(verify_start);
  if (!failure.ok()) {
    CountIf(options.metrics, "rewrite.errors");
    return failure;
  }
  result.truncated = !complete;
  // Deterministic facts go on the span; scheduling-dependent diagnostics
  // (memo hits, batches, wall time) go to metrics only, which keeps the
  // trace byte-identical at any parallelism (docs/OBSERVABILITY.md).
  search_span.Annotate("candidates_generated",
                       static_cast<uint64_t>(result.candidates_generated));
  search_span.Annotate("candidates_tested",
                       static_cast<uint64_t>(result.candidates_tested));
  search_span.Annotate("rewritings", static_cast<uint64_t>(result.rewritings.size()));
  search_span.Annotate("truncated", result.truncated ? "true" : "false");
  search_span.EndNow();
  if (options.metrics != nullptr) {
    MetricRegistry& m = *options.metrics;
    m.GetCounter("rewrite.mappings_found")->Increment(result.mappings_found);
    m.GetCounter("rewrite.candidates_generated")
        ->Increment(result.candidates_generated);
    m.GetCounter("rewrite.candidates_tested")
        ->Increment(result.candidates_tested);
    m.GetCounter("rewrite.rewritings_found")
        ->Increment(result.rewritings.size());
    m.GetCounter("rewrite.chase_cache_hits")
        ->Increment(result.chase_cache_hits);
    m.GetCounter("rewrite.equiv_cache_hits")
        ->Increment(result.equiv_cache_hits);
    m.GetCounter("rewrite.batches_dispatched")
        ->Increment(result.batches_dispatched);
    if (result.truncated) m.GetCounter("rewrite.truncated")->Increment();
    m.GetHistogram("rewrite.verify_us")->Observe(result.verify_wall_ticks);
  }
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("candidate search stopped after ", result.candidates_generated,
               " candidate(s) (max_candidates=", options.max_candidates,
               options.should_stop ? ", or the budget hook fired" : "",
               "); rewritings may have been missed"));
  }
  return result;
}

Result<RewriteResult> RewriteSinglePath(const TslQuery& query,
                                        const TslQuery& view,
                                        const RewriteOptions& options) {
  TslQuery normal = ToNormalForm(query);
  if (normal.body.size() != 1) {
    return Status::InvalidArgument(
        StrCat("RewriteSinglePath needs a single path condition; got ",
               normal.body.size()));
  }
  RewriteOptions single = options;
  single.require_total = true;  // the one condition must become the view
  return RewriteQuery(query, {view}, single);
}

}  // namespace tslrw
