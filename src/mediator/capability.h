#ifndef TSLRW_MEDIATOR_CAPABILITY_H_
#define TSLRW_MEDIATOR_CAPABILITY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "tsl/ast.h"

namespace tslrw {

struct CapabilityIdentity;

/// \brief One query template a source can answer, described as a view over
/// its data (\S1: "the different and limited query capabilities of the
/// sources are often described by 'views'").
///
/// Plain capabilities are just named TSL views. The TSIMMIS twist —
/// parameterized views whose constants are placeholders (`R.A = $X`) — is
/// modeled minimally by `bound_variables`: value variables the client must
/// instantiate with constants before the query is sent. \S1 notes that
/// parameters "do not seriously affect the complexity"; we support them by
/// instantiating the parameter from the mapping the rewriter found.
struct Capability {
  /// The view definition; its name doubles as the plan's source name.
  TslQuery view;
  /// Names of view variables that must be bound to constants by the
  /// mediator before the source will accept the query (binding-pattern
  /// adornment). Empty for plain views.
  std::set<std::string> bound_variables;
  /// Computed once by Mediator::Make; read through IdentityOf, which
  /// recomputes a missing or stale (view edited since) identity.
  std::shared_ptr<const CapabilityIdentity> identity = {};
};

/// \brief The α-invariant identity of one capability, with the exact rule
/// and bindings it was computed from (so a stale copy is detected).
struct CapabilityIdentity {
  TslQuery view;
  std::set<std::string> bound_variables;
  /// `view:<name>`, the canonical rule and the canonically renamed bound
  /// variables, one per line: equal texts denote the same name over
  /// α-equivalent rules with the same bindings.
  std::string text;
  uint64_t fingerprint = 0;  ///< StableFingerprint(text)

  /// Computed from exactly \p capability's view (name too) and bindings.
  bool Describes(const Capability& capability) const;
};

/// \brief Computes \p capability's identity (canonicalizes the view).
std::shared_ptr<const CapabilityIdentity> ComputeCapabilityIdentity(
    const Capability& capability);

/// \brief The stored identity when it still describes \p capability, else
/// a freshly computed one.
std::shared_ptr<const CapabilityIdentity> IdentityOf(
    const Capability& capability);

/// \brief The description of a wrapped source: where its data lives and the
/// query templates its interface supports (Fig. 2's "capabilities" input).
struct SourceDescription {
  /// Name of the source's OEM database in the catalog.
  std::string source;
  std::vector<Capability> capabilities;
};

/// \brief Validates a set of source descriptions: views must be named,
/// unique, and range over their own source only.
Status ValidateDescriptions(const std::vector<SourceDescription>& sources);

/// \brief An α-invariant identity fingerprint for one capability: covers the
/// view's name, its canonical body/head rendering (tsl/canonical), and the
/// bound-variable set translated into the canonical variable alphabet.
/// Renaming the view's variables consistently leaves the fingerprint
/// unchanged; editing its name, its rule (beyond α), or which variables the
/// client must bind changes it. The owning source's name is deliberately
/// excluded: a capability's contribution to a plan search depends only on
/// its rule (conditions are keyed by view name), so catalog diffing over
/// these fingerprints invalidates nothing when a view merely moves between
/// source descriptions. Reads the stored identity when it is current.
uint64_t ViewIdentityFingerprint(const Capability& capability);

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_CAPABILITY_H_
