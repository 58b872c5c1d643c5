#include "mediator/wrapper.h"

#include "ir/compiler.h"
#include "ir/interp.h"

namespace tslrw {

Result<WrapperResult> CatalogWrapper::Fetch(const Capability& capability,
                                            const SourceCatalog& catalog) {
  const std::shared_ptr<const CapabilityIdentity> identity =
      IdentityOf(capability);
  ExtentMemo* memo = catalog.extent_memo();  // null only when moved from
  std::shared_ptr<const OemDatabase> extent =
      memo == nullptr ? nullptr
                      : memo->Find(identity->fingerprint, identity->text);
  CountIf(metrics_, extent != nullptr ? "mediator.extent_memo_hits"
                                      : "mediator.extent_memo_misses");
  if (extent != nullptr) return WrapperResult{*extent, /*complete=*/true};
  TSLRW_ASSIGN_OR_RETURN(
      std::shared_ptr<const IrProgram> program,
      PlanCompiler(IrPassOptions{}, metrics_).Compile(capability.view));
  IrExecOptions options;
  options.answer_name = capability.view.name;
  options.metrics = metrics_;
  TSLRW_ASSIGN_OR_RETURN(OemDatabase data,
                         ExecuteIr(*program, catalog, options));
  if (memo != nullptr) {
    memo->Insert(identity->fingerprint, identity->text, data);
  }
  return WrapperResult{std::move(data), /*complete=*/true};
}

}  // namespace tslrw
