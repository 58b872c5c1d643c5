#include "mediator/capability.h"

#include <map>

#include "common/string_util.h"
#include "tsl/canonical.h"

namespace tslrw {

bool CapabilityIdentity::Describes(const Capability& capability) const {
  return view.name == capability.view.name && view == capability.view &&
         bound_variables == capability.bound_variables;
}

std::shared_ptr<const CapabilityIdentity> ComputeCapabilityIdentity(
    const Capability& capability) {
  std::map<Term, Term> renaming;
  const CanonicalForm canon = CanonicalizeQuery(capability.view, &renaming);
  // Translate each bound-variable name into the canonical alphabet so the
  // fingerprint stays stable under α-renaming. A bound name that does not
  // occur in the view makes every plan using the capability inadmissible
  // regardless of which name it is, so it contributes a fixed marker.
  std::set<std::string> bound_canonical;
  bool bound_missing = false;
  for (const std::string& name : capability.bound_variables) {
    bool found = false;
    for (const auto& [orig, canonical] : renaming) {
      if (orig.var_name() == name) {
        bound_canonical.insert(canonical.var_name());
        found = true;
      }
    }
    if (!found) bound_missing = true;
  }
  auto identity = std::make_shared<CapabilityIdentity>();
  identity->view = capability.view;
  identity->bound_variables = capability.bound_variables;
  identity->text = StrCat("view:", capability.view.name, "\n", canon.key,
                          "\n");
  for (const std::string& name : bound_canonical) {
    identity->text += StrCat("bound:", name, "\n");
  }
  if (bound_missing) identity->text += "bound-missing\n";
  identity->fingerprint = StableFingerprint(identity->text);
  return identity;
}

std::shared_ptr<const CapabilityIdentity> IdentityOf(
    const Capability& capability) {
  if (capability.identity != nullptr &&
      capability.identity->Describes(capability)) {
    return capability.identity;
  }
  return ComputeCapabilityIdentity(capability);
}

uint64_t ViewIdentityFingerprint(const Capability& capability) {
  return IdentityOf(capability)->fingerprint;
}

}  // namespace tslrw
