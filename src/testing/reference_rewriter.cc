#include "testing/reference_rewriter.h"

#include <algorithm>

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/compose.h"
#include "rewrite/parallel.h"
#include "tsl/validate.h"

namespace tslrw::testing {

namespace {

/// The memo-free CandidateVerifier: one candidate at a time, in
/// enumeration order, each verified in full.
Status VerifyEachCandidate(const TslQuery& chased_query,
                           const std::vector<TslQuery>& chased_views,
                           const ChaseOptions& chase_options,
                           const EquivalenceTester& tester,
                           const CandidateEnumerator& enumerator,
                           const RewriteOptions& options, size_t /*workers*/,
                           RewriteResult* result, bool* complete) {
  const TslQuery& q = chased_query;
  Status failure;  // first hard error inside the enumeration callback
  std::vector<std::vector<size_t>> accepted_atom_sets;
  *complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    ++result->candidates_generated;
    if (options.prune_dominated) {
      // `chosen` is sorted ascending by enumeration construction, and each
      // accepted entry is a former `chosen`.
      for (const std::vector<size_t>& prior : accepted_atom_sets) {
        if (std::includes(chosen.begin(), chosen.end(), prior.begin(),
                          prior.end())) {
          return true;  // dominated by an accepted, smaller rewriting
        }
      }
    }

    TslQuery candidate;
    candidate.name = StrCat(q.name.empty() ? "rewriting" : q.name, "_rw",
                            result->candidates_generated);
    candidate.head = q.head;  // Lemma 5.4
    for (size_t i : chosen) {
      candidate.body.push_back(enumerator.atoms()[i].condition);
    }
    if (!CheckSafety(candidate).ok()) return true;  // unsafe: skip

    // Step 1C: label inference + chase of the candidate.
    Result<TslQuery> chased = ChaseQuery(candidate, chase_options);
    if (!chased.ok()) {
      if (chased.status().IsUnsatisfiable()) return true;
      failure = chased.status();
      return false;
    }

    // Step 2: compose with the views and test equivalence with the query.
    ++result->candidates_tested;
    Result<TslRuleSet> composed = ComposeWithViews(*chased, chased_views);
    if (!composed.ok()) {
      failure = composed.status();
      return false;
    }
    Result<bool> equivalent = tester.EquivalentTo(*composed);
    if (!equivalent.ok()) {
      failure = equivalent.status();
      return false;
    }
    if (*equivalent) {
      accepted_atom_sets.push_back(chosen);
      result->rewritings.push_back(std::move(candidate));
    }
    return true;
  });
  return failure;
}

}  // namespace

Result<RewriteResult> ReferenceRewriteQuery(const TslQuery& query,
                                            const std::vector<TslQuery>& views,
                                            const RewriteOptions& options) {
  return RewriteQueryWith(query, views, options, &VerifyEachCandidate);
}

}  // namespace tslrw::testing
