#ifndef TSLRW_REWRITE_REWRITER_H_
#define TSLRW_REWRITE_REWRITER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "constraints/inference.h"
#include "rewrite/chase.h"
#include "tsl/ast.h"

namespace tslrw {

class MetricRegistry;
class Tracer;
class ViewSetIndex;

/// \brief Knobs for the \S3.4 rewriting algorithm.
struct RewriteOptions {
  /// Structural constraints (DTD-derived) used for label inference and the
  /// labeled-FD chase on the query, the views, and the candidates (\S3.3).
  const StructuralConstraints* constraints = nullptr;

  /// Optional precompiled index over the view set (src/catalog, attached
  /// through Mediator::AttachCatalogIndex after validation; not owned).
  /// When the index recognizes `views` as its compiled catalog,
  /// RewriteQuery reuses the offline chase outcomes and enumerates
  /// candidates only over views whose structural signature admits a
  /// containment mapping into the query — the result stays byte-identical
  /// to the full scan (see docs/CATALOG.md). When it does not (live-view
  /// subsets during failover replans, a stale index), the full scan runs.
  const ViewSetIndex* view_index = nullptr;

  /// The \S3.4 heuristic: only construct candidates whose view
  /// instantiations and query conditions together "cover" all conditions
  /// of the query body. Sound and completeness-preserving; typically
  /// shrinks the candidate space by orders of magnitude (see
  /// bench_rewrite's ablation).
  bool use_cover_heuristic = true;

  /// Only emit *total* rewritings — every body condition refers to a view
  /// (\S1: sources behind limited interfaces can only be reached through
  /// their capability views).
  bool require_total = false;

  /// Keep only rewritings that are minimal with respect to their condition
  /// sets: a rewriting is dropped when an accepted one uses a strict subset
  /// of its conditions. Matches the paper's "Results" note: a pruned
  /// rewriting is represented by a trivial sibling that is at least as
  /// efficient under any reasonable cost model.
  bool prune_dominated = true;

  /// Hard cap on candidates examined (the space is exponential, \S5.1);
  /// when hit, RewriteResult::truncated is set.
  size_t max_candidates = 1000000;

  /// Cooperative budget hook, polled between candidates: returning true
  /// stops the enumeration early with `truncated` set. The mediator wires
  /// this to its per-query deadline on the virtual clock, so a search never
  /// outlives the answer it was planning.
  std::function<bool()> should_stop = nullptr;

  /// Fail with ResourceExhausted instead of returning a silently shortened
  /// result when the search is cut off (max_candidates or should_stop).
  /// For callers that must distinguish "no rewriting exists" from "none was
  /// found within budget".
  bool strict_limits = false;

  /// Worker threads for candidate verification (chase + compose + \S4
  /// equivalence test) in the memoized pipeline of docs/PARALLELISM.md.
  /// `0` means hardware concurrency; `1` runs the pipeline inline on the
  /// calling thread (no pool, no thread); `n > 1` fans verification out
  /// over `n` workers. Results commit in enumeration order, so rewritings,
  /// candidate counters, truncation flag, and error statuses are
  /// byte-identical at every value.
  size_t parallelism = 0;

  /// Optional span tree for this call (docs/OBSERVABILITY.md). Spans are
  /// opened only on the calling thread — the deterministic control path —
  /// and annotated with replayed counters, so for a fixed input the trace
  /// is byte-identical at any `parallelism`. Null disables tracing.
  Tracer* tracer = nullptr;

  /// Optional metric sink. Unlike the trace, metrics also absorb the
  /// scheduling-dependent diagnostics (memo hit rates, wall-clock phase
  /// timings), so they are *not* covered by the byte-identity guarantee.
  /// Null disables metrics.
  MetricRegistry* metrics = nullptr;
};

/// \brief Output of the rewriting algorithm, including the counters the
/// complexity benchmarks report.
struct RewriteResult {
  /// Rewriting queries: each refers to at least one view and is equivalent
  /// to the input query (verified by composition + the \S4 test). Heads are
  /// identical to the query head (Lemma 5.4).
  std::vector<TslQuery> rewritings;

  /// Diagnostics.
  size_t mappings_found = 0;
  size_t candidates_generated = 0;
  size_t candidates_tested = 0;
  bool truncated = false;

  /// Shared-work diagnostics from the verification pipeline. Unlike the
  /// counters above these depend on worker scheduling when
  /// `parallelism > 1` (two racing workers may both miss a memo), so they
  /// are reported, not replayed, by the determinism guarantee; inline
  /// (`parallelism = 1`) they are deterministic.
  ///
  /// Candidates whose chase outcome was answered by a memo: either the
  /// candidate-level α-memo replayed a chase-unsatisfiable outcome, or —
  /// under structural constraints — the chase memo keyed on the candidate
  /// body's canonical form (src/tsl/canonical) supplied the chased query.
  /// The canonical chase memo engages only when constraints are present:
  /// without them the chase is a cheap normalization pass that costs less
  /// than its canonical fingerprint.
  size_t chase_cache_hits = 0;
  /// Candidates whose \S4 verdict was answered by a memo — the
  /// candidate-level memo keyed on a cheap α-sound fingerprint of the
  /// candidate body (a hit skips chase, composition, and the test), or the
  /// memo keyed on the fingerprint of the composed rule set. Equal keys
  /// imply equal verdicts; see docs/PARALLELISM.md.
  size_t equiv_cache_hits = 0;
  /// Work batches handed to the worker pool (0 inline).
  size_t batches_dispatched = 0;
  /// Wall-clock microseconds spent verifying candidates.
  uint64_t verify_wall_ticks = 0;

  /// Dependency-footprint facts for the maintenance layer (src/maint; see
  /// docs/SERVING.md "Incremental maintenance"). `views_touched` names every
  /// view that contributed at least one candidate atom — i.e. whose chased
  /// body admits a containment mapping into the chased query. It is a
  /// superset of the views referenced by `rewritings` (dominance pruning and
  /// truncation drop candidates, never atoms), which is exactly what makes
  /// it a sound footprint: a view outside this set cannot change the atom
  /// list, hence cannot change the search. Deterministic at any parallelism.
  std::set<std::string> views_touched;
  /// Stable keys (chase.h) of the constraint rules that fired while chasing
  /// the *inputs* (query and views). Candidate-chase firings are excluded —
  /// they are scheduling-dependent under the parallel pipeline — so this is
  /// observability data, not a sound constraint footprint; the maintenance
  /// layer flushes on any constraints delta regardless.
  std::set<std::string> fired_constraints;
  /// The chased input query (normal form, constraints applied). The
  /// maintenance layer probes it when a view is *added*: if the new view's
  /// chased body admits no containment mapping into this query, the cached
  /// plan set is provably unchanged. Empty when `query_unsatisfiable`.
  TslQuery chased_query;
  /// True when the chase proved the query unsatisfiable (the empty result
  /// holds for every view set; only a constraints change can alter it).
  bool query_unsatisfiable = false;
};

/// \brief The complete rewriting algorithm of \S3.4.
///
/// Pipeline: convert the query and views to normal form, apply label
/// inference and the chase; discover all containment mappings from each
/// view body into the query body (Step 1A); assemble candidate bodies from
/// instantiated view heads and original query conditions (Step 1B), chase
/// each candidate (Step 1C); then verify each candidate by composing it
/// with the views and testing equivalence with the query (Step 2). Sound
/// and complete for TSL (Theorem 5.5) in the absence of arbitrary FDs.
///
/// The query is rejected (IllFormedQuery) if unsafe or otherwise ill
/// formed; an Unsatisfiable query yields an empty result.
Result<RewriteResult> RewriteQuery(const TslQuery& query,
                                   const std::vector<TslQuery>& views,
                                   const RewriteOptions& options = {});

/// \brief The \S3.1 special case: a single-path-condition query against one
/// view. Returns at most one rewriting (there is at most one mapping).
/// Fails with InvalidArgument if the query body has more than one path.
Result<RewriteResult> RewriteSinglePath(const TslQuery& query,
                                        const TslQuery& view,
                                        const RewriteOptions& options = {});

}  // namespace tslrw

#endif  // TSLRW_REWRITE_REWRITER_H_
