// The benchmark's workloads: everything one run derives from (workload
// name, seed) before any timing starts — capability catalogs, source-data
// generator settings, the canonical query shapes with their spellings, and
// the request sequence with its publish cadence.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "mediator/capability.h"
#include "oem/generator.h"
#include "tsl/ast.h"

namespace perfbench {

/// One request: a canonical shape sent under one of its spellings
/// (spelling 0 is the shape's base text; the others are α-renamed and
/// conjunct-reordered, so they share its plan-cache key).
struct Request {
  uint32_t shape = 0;
  uint32_t spelling = 0;
};

enum class Publish { kNone, kViewEdit, kDataUpdate };

/// A publish goes before every kPublishEvery-th request of a timed window.
constexpr size_t kPublishEvery = 50;

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Capability catalogs. Version 0 is served at start; version 1 differs
  /// from it in exactly one view (`edited_view`), and a view edit toggles
  /// between the two so the catalog cannot drift.
  std::vector<tslrw::SourceDescription> views[2];
  std::string edited_view;
  /// Share of shapes that have an arm over the edited view's label (0 when
  /// the edited view is the spare one).
  double edited_view_share = 0;
  /// Source-data versions; a data update toggles between them (they are
  /// equal unless the workload swaps its data).
  tslrw::GeneratorOptions data[2];
  /// [shape][spelling] queries and their texts.
  std::vector<std::vector<tslrw::TslQuery>> spellings;
  std::vector<std::vector<std::string>> texts;
  /// Requests that fill the caches before the timed window.
  std::vector<Request> warmup;
  /// The timed sequence, replayed cyclically from index 0.
  std::vector<Request> sequence;
  /// The publish scheduled before request \p index of the timed window,
  /// alternating view edit and data update.
  Publish PublishBefore(size_t index) const;
  /// Share of sequence requests sent under a non-base spelling.
  double AlphaRenamedShare() const;
  /// A digest of everything the seed determines: views, data settings,
  /// the spelled request sequence, and the publish cadence.
  uint64_t Digest() const;
};

/// Builds workload \p name ("warm_head" or "cold_tail").
tslrw::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
