#ifndef TSLRW_OEM_DATABASE_H_
#define TSLRW_OEM_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oem/term.h"

namespace tslrw {

/// Object ids are ground terms from the Herbrand universe (\S2): atoms
/// (e.g. a URL) or function terms (e.g. `f(p1)` minted by a TSL head).
using Oid = Term;

/// \brief The value of an OEM object: either an atomic datum or the set of
/// its subobjects (referenced by oid).
///
/// Per \S2, the value of a set object is "essentially the OEM subgraph
/// rooted at o"; we represent the value as the set of child oids and leave
/// the subgraph implicit in the containing Database.
class OemValue {
 public:
  static OemValue Atomic(std::string datum);
  static OemValue EmptySet();
  static OemValue Set(std::set<Oid> children);

  bool is_atomic() const { return atomic_.has_value(); }
  bool is_set() const { return !is_atomic(); }

  /// Requires is_atomic().
  const std::string& atom() const { return *atomic_; }
  /// Requires is_set().
  const std::set<Oid>& children() const { return children_; }

  /// Adds a child oid; requires is_set().
  void AddChild(const Oid& child) { children_.insert(child); }

  friend bool operator==(const OemValue& a, const OemValue& b) {
    return a.atomic_ == b.atomic_ && a.children_ == b.children_;
  }

 private:
  std::optional<std::string> atomic_;
  std::set<Oid> children_;
};

/// \brief One OEM object: an id, a label, and a value.
struct OemObject {
  Oid oid;
  std::string label;
  OemValue value;

  bool is_atomic() const { return value.is_atomic(); }
};

/// \brief A rooted OEM database: labeled objects with unique oids plus a set
/// of top-level (root) objects, the starting points for querying (\S2).
///
/// Objects not reachable from a root are ignored by equality and printing,
/// matching the paper ("we ignore objects that are not reachable from the
/// roots of the graph").
class OemDatabase {
 public:
  OemDatabase() = default;
  explicit OemDatabase(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Inserts an atomic object. Fails with InvalidArgument if \p oid is not
  /// ground, or if an object with the same oid but different content exists
  /// (oids are keys: oid -> label, value).
  Status PutAtomic(const Oid& oid, std::string label, std::string datum);

  /// Inserts a set object (children may be added later via AddEdge). If the
  /// oid already names a set object with the same label, the child sets are
  /// fused (set union) — the \S2 fusion semantics.
  Status PutSet(const Oid& oid, std::string label,
                std::set<Oid> children = {});

  /// Adds \p child to the set value of \p parent. Fails if \p parent is
  /// missing or atomic.
  Status AddEdge(const Oid& parent, const Oid& child);

  /// Marks \p oid as a top-level object.
  Status AddRoot(const Oid& oid);

  /// Looks up an object; nullptr if absent.
  const OemObject* Find(const Oid& oid) const;

  const std::set<Oid>& roots() const { return roots_; }
  /// All stored objects, reachable or not, in oid order.
  const std::map<Oid, OemObject>& objects() const { return objects_; }
  size_t size() const { return objects_.size(); }

  /// Oids reachable from the roots (the database proper).
  std::set<Oid> ReachableOids() const;

  /// Verifies that every referenced child and root oid names an object.
  Status Validate() const;

  /// \S3 equality: the reachable portions are *identical* — same oids, and
  /// per oid the same label, same atomic/set-ness, same atomic value, and
  /// identical child sets.
  bool Equals(const OemDatabase& other) const;

  /// Canonical, deterministic text rendering of the reachable portion (the
  /// inverse of ParseOemDatabase). Each object is rendered in full exactly
  /// once; shared or cyclic occurrences are rendered as `@oid` references.
  std::string ToString() const;

  friend bool operator==(const OemDatabase& a, const OemDatabase& b) {
    return a.Equals(b);
  }

 private:
  std::string name_;
  std::map<Oid, OemObject> objects_;
  std::set<Oid> roots_;
};

/// \brief A thread-safe memo of extents (materialized views) derived from
/// one SourceCatalog's exact contents: \S1's Lore scenario inside the
/// mediator, answering a repeated capability query "from cached query
/// statements without examining the source data". Entries are keyed by a
/// 64-bit identity fingerprint and confirmed against the full identity
/// text, so a fingerprint collision materializes afresh instead of serving
/// a wrong extent. Memoized extents are immutable; callers copy them.
class ExtentMemo {
 public:
  /// Counters since this memo (catalog generation) was created.
  struct Stats {
    size_t extents = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;

    std::string ToString() const;
  };

  /// The extent memoized under (\p fingerprint, \p identity), counted as a
  /// hit; null on a miss.
  std::shared_ptr<const OemDatabase> Find(uint64_t fingerprint,
                                          std::string_view identity);

  /// Memoizes \p extent unless the slot is taken: when two callers miss on
  /// one identity at once, both materialize and the first insert is kept
  /// (the extents are equal); on a fingerprint collision the resident
  /// identity keeps the slot.
  void Insert(uint64_t fingerprint, std::string_view identity,
              OemDatabase extent);

  Stats stats() const;

 private:
  struct Entry {
    std::string identity;
    std::shared_ptr<const OemDatabase> extent;
  };
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// \brief A named collection of OEM sources: the mediator-side universe a
/// TSL query's `@source` annotations resolve against.
class SourceCatalog {
 public:
  /// Adds or replaces a source under db.name(), and starts a fresh extent
  /// memo: extents of the old contents no longer describe this catalog.
  void Put(OemDatabase db);

  /// Looks up a source by name; NotFound if absent.
  Result<const OemDatabase*> Find(std::string_view name) const;

  bool Contains(std::string_view name) const;
  const std::map<std::string, OemDatabase, std::less<>>& sources() const {
    return sources_;
  }

  /// The extents derived from exactly these contents. Copies of a catalog
  /// share one memo (their contents are equal until one of them is Put
  /// to); null only for a moved-from catalog.
  ExtentMemo* extent_memo() const { return extents_.get(); }

 private:
  std::map<std::string, OemDatabase, std::less<>> sources_;
  std::shared_ptr<ExtentMemo> extents_ = std::make_shared<ExtentMemo>();
};

}  // namespace tslrw

#endif  // TSLRW_OEM_DATABASE_H_
