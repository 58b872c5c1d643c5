#ifndef TSLRW_REWRITE_PARALLEL_H_
#define TSLRW_REWRITE_PARALLEL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/chase.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Steps 1B–2 of RewriteQuery: verifies every candidate
/// \p enumerator emits (chase, composition with the views, \S4 test) and
/// fills `result` (candidates_generated/tested, rewritings in enumeration
/// order, shared-work diagnostics). \p workers is the resolved
/// RewriteOptions::parallelism (>= 1). \p complete receives
/// CandidateEnumerator::Enumerate's completion flag. Returns the first hard
/// error in enumeration order, or OK.
using CandidateVerifier = Status (*)(const TslQuery& chased_query,
                                     const std::vector<TslQuery>& chased_views,
                                     const ChaseOptions& chase_options,
                                     const EquivalenceTester& tester,
                                     const CandidateEnumerator& enumerator,
                                     const RewriteOptions& options,
                                     size_t workers, RewriteResult* result,
                                     bool* complete);

/// \brief RewriteQuery's CandidateVerifier: the memoized pipeline of
/// docs/PARALLELISM.md.
///
/// The enumeration stays on the calling thread. Verification goes through
/// α-invariant memos (the whole outcome by a cheap α-sound fingerprint of
/// the candidate body, the chase by canonical body under constraints, the
/// verdict by a fingerprint of the composed rule set) plus a dedupe of
/// byte-identical bodies. With one worker each candidate is verified
/// inline as soon as it is emitted; with more, batches go to a worker pool,
/// each worker holding its own EquivalenceTester clone and ComposeCache.
/// Outcomes commit in enumeration order, so `result` and any hard-error
/// Status are the same at every worker count.
Status VerifyCandidates(const TslQuery& chased_query,
                        const std::vector<TslQuery>& chased_views,
                        const ChaseOptions& chase_options,
                        const EquivalenceTester& tester,
                        const CandidateEnumerator& enumerator,
                        const RewriteOptions& options, size_t workers,
                        RewriteResult* result, bool* complete);

/// \brief RewriteQuery with its Step 2 verifier supplied by the caller
/// (defined in rewriter.cc). Everything else — input chase, mappings,
/// tester, enumerator, counters, and spans — is RewriteQuery's own;
/// RewriteQuery itself is RewriteQueryWith(..., &VerifyCandidates). The
/// memo-free reference verifier (src/testing/reference_rewriter.h) plugs
/// in here, so the byte-identity tests compare the verifiers alone.
Result<RewriteResult> RewriteQueryWith(const TslQuery& query,
                                       const std::vector<TslQuery>& views,
                                       const RewriteOptions& options,
                                       CandidateVerifier verify);

}  // namespace tslrw

#endif  // TSLRW_REWRITE_PARALLEL_H_
