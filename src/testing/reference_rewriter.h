#ifndef TSLRW_TESTING_REFERENCE_REWRITER_H_
#define TSLRW_TESTING_REFERENCE_REWRITER_H_

#include <vector>

#include "common/result.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw::testing {

/// \brief The test oracle for RewriteQuery's Step 2: the same input chase,
/// mappings, tester, and enumerator (RewriteQueryWith), but every candidate
/// is verified from scratch on the calling thread — no memos, no dedupe,
/// no pool — straight down the \S3.4 decision ladder. RewriteQuery must
/// match it byte for byte at every `parallelism` (rewritings and their
/// names, mappings_found, candidates_generated/tested, truncated, error
/// statuses); tests/parallel_rewrite_test.cc checks that, which is what
/// keeps the pipeline's memos honest. `options.parallelism` is ignored.
Result<RewriteResult> ReferenceRewriteQuery(const TslQuery& query,
                                            const std::vector<TslQuery>& views,
                                            const RewriteOptions& options = {});

}  // namespace tslrw::testing

#endif  // TSLRW_TESTING_REFERENCE_REWRITER_H_
