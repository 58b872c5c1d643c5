#ifndef TSLRW_MEDIATOR_WRAPPER_H_
#define TSLRW_MEDIATOR_WRAPPER_H_

#include "common/result.h"
#include "mediator/capability.h"
#include "obs/metrics.h"
#include "oem/database.h"

namespace tslrw {

/// \brief What one wrapper call returns: the materialized capability view
/// plus whether the source delivered everything it had. A fault (or a
/// source-side result cap) can truncate the feed without failing it; the
/// mediator then degrades the answer's completeness instead of its
/// soundness.
struct WrapperResult {
  OemDatabase data;
  bool complete = true;
};

/// \brief The seam between Mediator::Execute and the sources (Fig. 1's
/// wrapper boxes): one call ships a capability's query template to its
/// source and returns the materialized view.
///
/// Implementations signal transient trouble with Status::Unavailable and
/// slow calls are caught by the retry layer's per-call deadline; anything
/// else (NotFound, evaluation failures) is treated as permanent. The
/// default CatalogWrapper never fails transiently; FaultInjector decorates
/// it with scripted, reproducible failure modes.
class Wrapper {
 public:
  virtual ~Wrapper() = default;

  virtual Result<WrapperResult> Fetch(const Capability& capability,
                                      const SourceCatalog& catalog) = 0;
};

/// \brief The in-process default wrapper: "sends" the view to the source by
/// materializing it over the catalog with the IR interpreter, once per
/// catalog generation: extents are memoized on the catalog
/// (SourceCatalog::extent_memo) under the capability's identity, and each
/// fetch returns a copy. Decorators such as FaultInjector still see every
/// fetch and only ever alter their own copy.
class CatalogWrapper : public Wrapper {
 public:
  /// \param metrics optional sink (not owned) for
  ///        `mediator.extent_memo_{hits,misses}` and materialization ir.*.
  explicit CatalogWrapper(MetricRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override;

 private:
  MetricRegistry* metrics_;
};

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_WRAPPER_H_
