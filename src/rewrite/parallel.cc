#include "rewrite/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "rewrite/compose.h"
#include "runtime/thread_pool.h"
#include "tsl/canonical.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

/// Candidates per worker task. Large enough that queue/lock/wakeup traffic
/// stays a rounding error next to the per-candidate chase + composition;
/// small enough that a search in the hundreds of candidates still spreads
/// across a pool. (Searches smaller than one batch lose nothing: their
/// wall clock is dominated by the first uncached equivalence test.) With
/// one worker there is no pool and every batch holds one candidate.
constexpr size_t kBatchSize = 32;

/// Runs \p fn; when \p hist is set, records its wall time in microseconds
/// there (the `rewrite.phase.*_us` histograms).
template <typename Fn>
auto Timed(Histogram* hist, Fn&& fn) {
  if (hist == nullptr) return fn();
  const auto start = std::chrono::steady_clock::now();
  auto out = fn();
  hist->Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return out;
}

/// How one candidate's verification ended: the decision points of Step 2,
/// which commit applies in enumeration order.
struct Slot {
  enum class Stage {
    kDominated,   // resolved at dispatch: a committed accepted set is a
                  // subset of this candidate's — commit re-proves it
    kUnsafe,      // CheckSafety failed: skipped, never tested
    kChaseUnsat,  // candidate chase unsatisfiable: skipped, never tested
    kChaseError,  // hard chase error: fails before candidates_tested
    kLateError,   // compose/equivalence error: fails after candidates_tested
    kVerdict,     // tested; `equivalent` holds the \S4 answer
  };
  Stage stage = Stage::kVerdict;
  bool equivalent = false;
  Status error;
  bool done = false;  // guarded by Pipeline::mu_
};
using SlotPtr = std::shared_ptr<Slot>;

/// One emitted candidate, held until its turn to commit. Candidates with
/// byte-identical bodies share one Slot (the work runs once) but keep their
/// own `candidate` — names embed the emission sequence number.
struct Pending {
  size_t seq = 0;  // candidates_generated at emission (1-based)
  std::shared_ptr<TslQuery> candidate;  // null when resolved at dispatch
  std::vector<size_t> chosen;           // sorted atom indices
  SlotPtr slot;
};

struct WorkItem {
  std::shared_ptr<const TslQuery> candidate;
  SlotPtr slot;
  std::vector<uint32_t> alpha_key;  // candidate-level memo key
};

/// FNV-1a over interned-id vectors; the memo tables are hash maps because
/// their keys share long common prefixes (α-isomorphic candidates differ
/// only near the end), which makes ordered-map probes degenerate into
/// repeated full-key comparisons.
struct U32VecHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 14695981039346656037ull;
    for (uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Whether some accepted set is a subset of \p chosen (both sorted
/// ascending — `chosen` by enumeration construction, accepted entries
/// because they are former `chosen`s).
bool Dominated(const std::vector<std::vector<size_t>>& accepted,
               const std::vector<size_t>& chosen) {
  for (const std::vector<size_t>& prior : accepted) {
    if (std::includes(chosen.begin(), chosen.end(), prior.begin(),
                      prior.end())) {
      return true;
    }
  }
  return false;
}

/// Memo keys are *cheap α-sound* fingerprints, not the full canonical form
/// (src/tsl/canonical): CanonicalizeQuery costs about as much as the
/// equivalence test it would save (it is graph canonicalization), which
/// would cancel the sharing win on the very workloads the memo targets.
/// Instead each rule is rendered in two separable parts per condition — a
/// variable-blind *shape* string and the *wiring*, the sequence of
/// variable indices in first-occurrence order over (head, shape-sorted
/// conditions). Equal keys imply the rules are α-isomorphic (the
/// occurrence numbering exhibits the bijection), so equal keys imply equal
/// verification outcomes — soundness. α-equivalent rules can still get
/// distinct keys (e.g. when two conditions share a shape and sort
/// ambiguously); such a miss merely costs one full verification.
///
/// The same idea is applied at two levels. The *candidate* memo keys the
/// whole verification outcome (chase-unsatisfiable or the \S4 verdict) on
/// the candidate body before any work runs: every candidate shares the one
/// query head, so α-isomorphic bodies verify identically, and a hit skips
/// chase, composition, and the equivalence test outright. Its per-atom key
/// material (shape, interned variable names) is precomputed once at
/// pipeline construction, making the per-candidate key a few integer
/// writes. The *composed rule set* memo (CheapRuleKey/RuleSetKey below)
/// catches candidates whose bodies differ structurally but compose to
/// α-isomorphic rule sets. Hard errors are never memoized at either level:
/// an error must re-run so it surfaces with exactly the bytes of a
/// memo-free verification of that candidate.
struct ShapeOut {
  std::string shape;               // text with every variable as `?<sort>`
  std::vector<const Term*> vars;   // variable occurrences, traversal order
};

void WalkTerm(const Term& t, ShapeOut* out) {
  switch (t.kind()) {
    case TermKind::kAtom:
      out->shape += 'a';
      out->shape += t.atom_name();
      out->shape += ';';
      return;
    case TermKind::kVariable:
      out->shape += '?';
      out->shape += static_cast<char>('0' + static_cast<int>(t.var_kind()));
      out->vars.push_back(&t);
      return;
    case TermKind::kFunction:
      out->shape += 'f';
      out->shape += t.functor();
      out->shape += '(';
      for (const Term& arg : t.args()) WalkTerm(arg, out);
      out->shape += ')';
      return;
  }
}

void WalkPattern(const ObjectPattern& p, ShapeOut* out) {
  out->shape += '<';
  out->shape += static_cast<char>('0' + static_cast<int>(p.step));
  WalkTerm(p.oid, out);
  WalkTerm(p.label, out);
  if (p.value.is_term()) {
    WalkTerm(p.value.term(), out);
  } else {
    out->shape += '{';
    for (const ObjectPattern& member : p.value.set()) {
      WalkPattern(member, out);
    }
    out->shape += '}';
  }
  out->shape += '>';
}

/// Appends \p v in decimal without allocating.
void AppendIndex(size_t v, std::string* out) {
  if (v < 10) {
    *out += static_cast<char>('0' + v);
    return;
  }
  char buf[20];
  size_t n = 0;
  for (; v > 0; v /= 10) buf[n++] = static_cast<char>('0' + v % 10);
  while (n > 0) *out += buf[--n];
}

/// The rule's fingerprint; excludes the rule *name* (candidate names embed
/// the emission sequence number) and is insensitive to body order. This
/// runs once per composed rule per uncached candidate, so it stays off
/// node-allocating containers: the first-occurrence index is a linear scan
/// (a rule has a couple dozen variable occurrences at most).
std::string CheapRuleKey(const TslQuery& rule) {
  std::vector<ShapeOut> conds(rule.body.size());
  std::vector<size_t> order(rule.body.size());
  size_t vars = 0;
  size_t shapes = 0;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    conds[i].shape.reserve(96);
    conds[i].shape += '@';
    conds[i].shape += rule.body[i].source;
    conds[i].shape += ':';
    WalkPattern(rule.body[i].pattern, &conds[i]);
    order[i] = i;
    vars += conds[i].vars.size();
    shapes += conds[i].shape.size();
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return conds[a].shape < conds[b].shape;
  });
  ShapeOut head;
  WalkPattern(rule.head, &head);

  std::vector<const std::string*> index;  // first-occurrence order
  index.reserve(vars + head.vars.size());
  std::string key;
  key.reserve(head.shape.size() + shapes + 5 * (vars + head.vars.size()) +
              2 * conds.size() + 2);
  key += head.shape;
  auto append_wiring = [&](const ShapeOut& part) {
    key += '#';
    for (const Term* var : part.vars) {
      const std::string& name = var->var_name();
      size_t at = 0;
      while (at < index.size() && *index[at] != name) ++at;
      if (at == index.size()) index.push_back(&name);
      AppendIndex(at, &key);
      key += ',';
    }
  };
  append_wiring(head);
  for (size_t i : order) {
    key += '|';
    key += conds[i].shape;
    append_wiring(conds[i]);
  }
  return key;
}

/// Order-insensitive key of a composed rule set: the sorted multiset of
/// per-rule fingerprints (rule variables are rule-scoped, so per-rule
/// keying is exact for the set).
std::string RuleSetKey(const TslRuleSet& rules) {
  std::vector<std::string> keys;
  keys.reserve(rules.rules.size());
  for (const TslQuery& rule : rules.rules) {
    keys.push_back(CheapRuleKey(rule));
  }
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& key : keys) {
    out += key;
    out += '\n';
  }
  return out;
}

class Pipeline {
 public:
  Pipeline(const TslQuery& chased_query,
           const std::vector<TslQuery>& chased_views,
           const std::vector<CandidateAtom>& atoms,
           const ChaseOptions& chase_options, const EquivalenceTester& tester,
           const RewriteOptions& options, size_t workers,
           RewriteResult* result)
      : views_(chased_views),
        chase_options_(chase_options),
        tester_(tester),
        options_(options),
        result_(result),
        head_(chased_query.head),
        name_prefix_(chased_query.name.empty() ? "rewriting"
                                               : chased_query.name),
        batch_size_(workers > 1 ? kBatchSize : 1),
        max_pending_(workers * kBatchSize * 4) {
    if (options.metrics != nullptr) {
      chase_us_ = options.metrics->GetHistogram("rewrite.phase.chase_us");
      compose_us_ = options.metrics->GetHistogram("rewrite.phase.compose_us");
      equiv_us_ = options.metrics->GetHistogram("rewrite.phase.equiv_us");
    }
    InternAtoms(atoms);
    contexts_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      contexts_.push_back(std::make_unique<Ctx>(tester));
      free_contexts_.push_back(i);
    }
    // One worker verifies inline on the producing thread: no pool, no
    // thread.
    if (workers == 1) return;
    ThreadPool::Options pool;
    pool.threads = workers;
    // The producer's in-flight bound keeps the depth below this; the slack
    // absorbs partial batches. A full queue is still handled (Flush runs
    // the batch inline), it just should not be the steady state.
    pool.queue_capacity = 2 * max_pending_ + 16;
    // The pool lives for one search; small searches dispatch fewer batches
    // than there are workers, so start threads only as batches arrive.
    pool.lazy_spawn = true;
    pool_ = std::make_unique<ThreadPool>(pool);
  }

  /// The CandidateEnumerator callback; runs on the producing thread.
  /// Returns false to stop the enumeration (a hard error committed).
  bool OnCandidate(const std::vector<CandidateAtom>& atoms,
                   const std::vector<size_t>& chosen) {
    std::unique_lock<std::mutex> lock(mu_);
    if (failed_) return false;
    ++result_->candidates_generated;
    const size_t seq = result_->candidates_generated;
    CommitReady();
    if (failed_) return false;

    Pending p;
    p.seq = seq;
    // `chosen` is only consulted by the dominance checks; skip the copy
    // when pruning is off.
    if (options_.prune_dominated) p.chosen = chosen;

    if (options_.prune_dominated && Dominated(accepted_, p.chosen)) {
      // The accepted prefix only grows, so the authoritative commit-time
      // dominance check is guaranteed to discard this candidate too: skip
      // the verification work entirely.
      p.slot = std::make_shared<Slot>();
      p.slot->stage = Slot::Stage::kDominated;
      p.slot->done = true;
      pending_.push_back(std::move(p));
      return true;
    }

    auto candidate = std::make_shared<TslQuery>();
    candidate->name = StrCat(name_prefix_, "_rw", seq);
    candidate->head = head_;  // Lemma 5.4
    std::vector<uint32_t> body_key;
    body_key.reserve(chosen.size());
    for (size_t i : chosen) {
      candidate->body.push_back(atoms[i].condition);
      body_key.push_back(atom_info_[i].cond_id);
    }
    p.candidate = candidate;

    auto it = body_slots_.find(body_key);
    if (it != body_slots_.end()) {
      p.slot = it->second;  // identical body already in flight or finished
    } else if (!CheckSafety(*candidate).ok()) {
      p.slot = std::make_shared<Slot>();
      p.slot->stage = Slot::Stage::kUnsafe;
      p.slot->done = true;
      body_slots_.emplace(std::move(body_key), p.slot);
    } else {
      std::vector<uint32_t> alpha_key = AlphaKey(chosen);
      p.slot = std::make_shared<Slot>();
      if (LookupCandidateMemo(alpha_key, p.slot.get())) {
        p.slot->done = true;  // α-isomorphic candidate already verified
      } else {
        batch_.push_back(WorkItem{candidate, p.slot, std::move(alpha_key)});
      }
      body_slots_.emplace(std::move(body_key), p.slot);
      if (batch_.size() >= batch_size_) Flush(lock);
    }
    pending_.push_back(std::move(p));

    // Bounded in-flight window: block — committing whatever lands — rather
    // than let enumeration outrun the commit frontier without limit.
    if (pending_.size() >= max_pending_) Flush(lock);
    while (!failed_ && pending_.size() >= max_pending_) {
      CommitReady();
      if (failed_ || pending_.size() < max_pending_) break;
      slot_ready_.wait(lock);
    }
    // Inline, this commits the candidate just verified, so a hard error
    // stops the enumeration at the candidate that raised it.
    CommitReady();
    return !failed_;
  }

  /// Flushes stragglers, commits everything, joins the pool, and folds the
  /// shared-work counters into the result. Returns the first in-order hard
  /// error, or OK.
  Status Finish() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      Flush(lock);
      while (!failed_ && !pending_.empty()) {
        CommitReady();
        if (failed_ || pending_.empty()) break;
        if (!pending_.front().slot->done) slot_ready_.wait(lock);
      }
    }
    // Drains work items stranded behind a hard error; their outcomes are
    // never committed.
    if (pool_ != nullptr) pool_->Shutdown();
    result_->chase_cache_hits += chase_hits_.load();
    result_->equiv_cache_hits += equiv_hits_.load();
    return failed_ ? failure_ : Status::OK();
  }

 private:
  /// Per-worker state: a tester clone (the issue of sharing one is moot —
  /// EquivalentTo is const — but clones make the isolation obvious and keep
  /// any future mutable caches in EquivalenceTester safe) and the
  /// composition memo, which is mutable and therefore thread-local.
  struct Ctx {
    explicit Ctx(const EquivalenceTester& t) : tester(t) {}
    EquivalenceTester tester;
    ComposeCache compose;
  };

  /// Per-atom key material interned once at construction so the
  /// per-candidate keys are integer appends, not renders.
  struct AtomKeyInfo {
    uint32_t cond_id = 0;     // exact-identity id of the rendered condition
    uint32_t shape_id = 0;    // id of the variable-blind shape (with source)
    uint32_t shape_rank = 0;  // rank of the shape string under `<`
    std::vector<uint32_t> vars;  // interned variable names, traversal order
  };

  /// A completed, error-free verification outcome, shared across
  /// α-isomorphic candidates.
  struct CandidateOutcome {
    bool unsat = false;
    bool equivalent = false;
  };

  void InternAtoms(const std::vector<CandidateAtom>& atoms) {
    std::map<std::string, uint32_t> cond_ids;
    std::map<std::string, uint32_t> shape_ids;
    std::map<std::string, uint32_t> var_ids;
    auto intern = [](std::map<std::string, uint32_t>& table, std::string s) {
      return table.emplace(std::move(s), static_cast<uint32_t>(table.size()))
          .first->second;
    };
    atom_info_.reserve(atoms.size());
    for (const CandidateAtom& atom : atoms) {
      AtomKeyInfo info;
      info.cond_id = intern(cond_ids, atom.condition.ToString());
      ShapeOut s;
      s.shape += '@';
      s.shape += atom.condition.source;
      s.shape += ':';
      WalkPattern(atom.condition.pattern, &s);
      info.vars.reserve(s.vars.size());
      for (const Term* var : s.vars) {
        info.vars.push_back(intern(var_ids, var->var_name()));
      }
      info.shape_id = intern(shape_ids, std::move(s.shape));
      atom_info_.push_back(std::move(info));
    }
    ShapeOut head_shape;
    WalkPattern(head_, &head_shape);
    head_vars_.reserve(head_shape.vars.size());
    for (const Term* var : head_shape.vars) {
      head_vars_.push_back(intern(var_ids, var->var_name()));
    }
    // std::map iterates in key order, which is exactly the shape rank.
    shape_rank_.resize(shape_ids.size());
    uint32_t rank = 0;
    for (const auto& [shape, id] : shape_ids) shape_rank_[id] = rank++;
    for (AtomKeyInfo& info : atom_info_) {
      info.shape_rank = shape_rank_[info.shape_id];
    }
    var_seen_.assign(var_ids.size(), 0);
    var_index_.assign(var_ids.size(), 0);
  }

  /// The candidate-level memo key: body size, shape ids in shape-sorted
  /// order (ties keep enumeration order, mirroring CheapRuleKey's stable
  /// sort), then variable wiring — first-occurrence indices over (head,
  /// sorted conditions). Equal keys exhibit an α-isomorphism that fixes
  /// the (shared) head, so equal keys imply equal chase satisfiability and
  /// equal \S4 verdicts. Runs on the single producer thread only — the
  /// scratch members are not shared.
  std::vector<uint32_t> AlphaKey(const std::vector<size_t>& chosen) {
    order_.assign(chosen.begin(), chosen.end());
    std::stable_sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return atom_info_[a].shape_rank < atom_info_[b].shape_rank;
    });
    std::vector<uint32_t> key;
    key.reserve(1 + chosen.size() * 4);
    key.push_back(static_cast<uint32_t>(chosen.size()));
    for (size_t i : order_) key.push_back(atom_info_[i].shape_id);
    ++epoch_;
    uint32_t next = 0;
    auto wire = [&](const std::vector<uint32_t>& vars) {
      for (uint32_t v : vars) {
        if (var_seen_[v] != epoch_) {
          var_seen_[v] = epoch_;
          var_index_[v] = next++;
        }
        key.push_back(var_index_[v]);
      }
    };
    wire(head_vars_);
    for (size_t i : order_) wire(atom_info_[i].vars);
    return key;
  }

  /// On a candidate-memo hit, writes the memoized stage into \p slot (not
  /// `done` — dispatch and worker paths finalize differently) and counts
  /// the skipped work. Takes memo_mu_; see the lock-order note on memo_mu_.
  bool LookupCandidateMemo(const std::vector<uint32_t>& alpha_key,
                           Slot* slot) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = candidate_memo_.find(alpha_key);
    if (it == candidate_memo_.end()) return false;
    if (it->second.unsat) {
      slot->stage = Slot::Stage::kChaseUnsat;
      chase_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot->stage = Slot::Stage::kVerdict;
      slot->equivalent = it->second.equivalent;
      equiv_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void StoreCandidateMemo(const std::vector<uint32_t>& alpha_key,
                          CandidateOutcome outcome) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    candidate_memo_.emplace(alpha_key, outcome);
  }

  /// Commits every ready in-order outcome. Caller holds mu_.
  void CommitReady() {
    while (!failed_ && !pending_.empty() && pending_.front().slot->done) {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      if (options_.prune_dominated && Dominated(accepted_, p.chosen)) {
        continue;  // discarded before any of its outcome is examined
      }
      const Slot& slot = *p.slot;
      switch (slot.stage) {
        case Slot::Stage::kDominated:
          // Unreachable: dispatch-time dominance implies commit-time
          // dominance (the accepted prefix only grows). Skipping is the
          // right answer regardless.
          break;
        case Slot::Stage::kUnsafe:
        case Slot::Stage::kChaseUnsat:
          break;
        case Slot::Stage::kChaseError:
          failure_ = slot.error;
          failed_ = true;
          break;
        case Slot::Stage::kLateError:
          ++result_->candidates_tested;
          failure_ = slot.error;
          failed_ = true;
          break;
        case Slot::Stage::kVerdict:
          ++result_->candidates_tested;
          if (slot.equivalent) {
            if (options_.prune_dominated) {
              accepted_.push_back(std::move(p.chosen));
            }
            result_->rewritings.push_back(std::move(*p.candidate));
          }
          break;
      }
    }
  }

  /// Hands the current batch to the pool, or verifies it inline when
  /// there is no pool (one worker) or the pool is saturated. Outcomes are
  /// outcomes wherever they are computed; commit order is unaffected.
  /// Caller holds mu_ (released only around an inline run).
  void Flush(std::unique_lock<std::mutex>& lock) {
    if (batch_.empty()) return;
    auto batch = std::make_shared<std::vector<WorkItem>>(std::move(batch_));
    batch_.clear();
    if (pool_ != nullptr &&
        pool_->TrySubmit([this, batch] { RunBatch(*batch); }).ok()) {
      ++result_->batches_dispatched;
      return;
    }
    lock.unlock();
    RunBatch(*batch);
    lock.lock();
  }

  void RunBatch(std::vector<WorkItem>& batch) {
    size_t ctx_index = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lock(ctx_mu_);
      if (!free_contexts_.empty()) {
        ctx_index = free_contexts_.back();
        free_contexts_.pop_back();
      }
    }
    // Only an inline run beside a busy pool can find every context taken;
    // it clones a fresh one rather than sharing.
    std::unique_ptr<Ctx> local;
    if (ctx_index == SIZE_MAX) local = std::make_unique<Ctx>(tester_);
    Ctx& ctx = local ? *local : *contexts_[ctx_index];
    // Publish the whole batch under one lock with one wakeup — per-item
    // lock-and-notify traffic would rival a memo-hit verification itself.
    // The producer (the only slot_ready_ waiter) has batches of slack in
    // its in-flight window, so coarser signaling does not stall it.
    std::vector<Slot> outs;
    outs.reserve(batch.size());
    for (WorkItem& item : batch) {
      outs.push_back(Verify(*item.candidate, item.alpha_key, ctx));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < batch.size(); ++i) {
        outs[i].done = true;
        *batch[i].slot = std::move(outs[i]);
      }
    }
    slot_ready_.notify_one();
    if (ctx_index != SIZE_MAX) {
      std::lock_guard<std::mutex> lock(ctx_mu_);
      free_contexts_.push_back(ctx_index);
    }
  }

  /// Chase + compose + equivalence for one candidate, through the memos.
  /// Each phase that actually runs is timed into `rewrite.phase.*_us`;
  /// memo hits are not. Hard-error Statuses are never cached: an error
  /// must surface with the exact message a memo-free verification of that
  /// candidate produces.
  Slot Verify(const TslQuery& candidate,
              const std::vector<uint32_t>& alpha_key, Ctx& ctx) {
    Slot out;
    // The candidate memo first: an α-isomorphic candidate may have
    // finished (even earlier in this very batch) since this one was
    // dispatched, and a hit skips every step below.
    if (LookupCandidateMemo(alpha_key, &out)) return out;
    // Step 1C through the chase memo. The key is the candidate body's
    // canonical fingerprint (src/tsl/canonical) — α-invariant, like the
    // chase outcome (success/unsat and the result modulo renaming); the
    // stored query keeps the *first* computer's name, which composition
    // carries into rule names — the verdict, the only consumer, is
    // name-blind. The memo engages only under structural constraints:
    // without them the chase is a cheap normalization pass that costs less
    // than its canonical fingerprint, and identical bodies were already
    // deduped producer-side.
    const bool use_chase_memo = chase_options_.constraints != nullptr;
    std::shared_ptr<const TslQuery> chased;
    bool chase_unsat = false;
    bool have_entry = false;
    std::string candidate_key;
    if (use_chase_memo) {
      candidate_key = CanonicalizeQuery(candidate).key;
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = chase_memo_.find(candidate_key);
      if (it != chase_memo_.end()) {
        chase_hits_.fetch_add(1, std::memory_order_relaxed);
        chase_unsat = it->second.unsat;
        chased = it->second.chased;
        have_entry = true;
      }
    }
    if (!have_entry) {
      Result<TslQuery> fresh = Timed(
          chase_us_, [&] { return ChaseQuery(candidate, chase_options_); });
      if (fresh.ok()) {
        chased = std::make_shared<const TslQuery>(std::move(fresh).value());
      } else if (fresh.status().IsUnsatisfiable()) {
        chase_unsat = true;
      } else {
        out.stage = Slot::Stage::kChaseError;
        out.error = fresh.status();
        return out;
      }
      if (use_chase_memo) {
        std::lock_guard<std::mutex> lock(memo_mu_);
        chase_memo_.emplace(std::move(candidate_key),
                            ChaseEntry{chase_unsat, chased});
      }
    }
    if (chase_unsat) {
      out.stage = Slot::Stage::kChaseUnsat;
      StoreCandidateMemo(alpha_key, CandidateOutcome{true, false});
      return out;
    }

    // Step 2 through the per-worker compose cache and the verdict memo.
    Result<TslRuleSet> composed = Timed(compose_us_, [&] {
      return ComposeWithViews(*chased, views_, &ctx.compose);
    });
    if (!composed.ok()) {
      out.stage = Slot::Stage::kLateError;
      out.error = composed.status();
      return out;
    }
    std::string verdict_key = RuleSetKey(*composed);
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = verdict_memo_.find(verdict_key);
      if (it != verdict_memo_.end()) {
        equiv_hits_.fetch_add(1, std::memory_order_relaxed);
        out.equivalent = it->second;
        candidate_memo_.emplace(alpha_key,
                                CandidateOutcome{false, out.equivalent});
        return out;
      }
    }
    Result<bool> equivalent =
        Timed(equiv_us_, [&] { return ctx.tester.EquivalentTo(*composed); });
    if (!equivalent.ok()) {
      out.stage = Slot::Stage::kLateError;
      out.error = equivalent.status();
      return out;
    }
    out.equivalent = *equivalent;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      verdict_memo_.emplace(std::move(verdict_key), *equivalent);
      candidate_memo_.emplace(alpha_key, CandidateOutcome{false, *equivalent});
    }
    return out;
  }

  struct ChaseEntry {
    bool unsat = false;
    std::shared_ptr<const TslQuery> chased;  // null when unsat
  };

  // Fixed inputs.
  const std::vector<TslQuery>& views_;
  const ChaseOptions& chase_options_;
  const EquivalenceTester& tester_;
  const RewriteOptions& options_;
  RewriteResult* result_;
  const ObjectPattern head_;
  const std::string name_prefix_;
  const size_t batch_size_;
  const size_t max_pending_;
  // The `rewrite.phase.*_us` histograms; null without metrics.
  Histogram* chase_us_ = nullptr;
  Histogram* compose_us_ = nullptr;
  Histogram* equiv_us_ = nullptr;

  // Producer/commit state; guarded by mu_ (slot_ready_ signals new done
  // slots). `result_` and `accepted_` are written by the producer thread
  // only, under mu_.
  std::mutex mu_;
  std::condition_variable slot_ready_;
  std::deque<Pending> pending_;
  std::vector<WorkItem> batch_;
  std::unordered_map<std::vector<uint32_t>, SlotPtr, U32VecHash> body_slots_;
  std::vector<std::vector<size_t>> accepted_;
  bool failed_ = false;
  Status failure_;

  // Interned per-atom key material; written at construction, then
  // read-only.
  std::vector<AtomKeyInfo> atom_info_;
  std::vector<uint32_t> head_vars_;
  std::vector<uint32_t> shape_rank_;
  // Producer-only AlphaKey scratch (single producer thread).
  std::vector<size_t> order_;
  std::vector<uint32_t> var_seen_;
  std::vector<uint32_t> var_index_;
  uint32_t epoch_ = 0;

  // Shared memos; guarded by memo_mu_. Lock order: the producer takes
  // memo_mu_ while holding mu_ (dispatch-time candidate-memo probe);
  // workers take each alone — never memo_mu_ then mu_.
  std::mutex memo_mu_;
  std::unordered_map<std::string, ChaseEntry> chase_memo_;
  std::unordered_map<std::vector<uint32_t>, CandidateOutcome, U32VecHash>
      candidate_memo_;
  std::unordered_map<std::string, bool> verdict_memo_;
  std::atomic<size_t> chase_hits_{0};
  std::atomic<size_t> equiv_hits_{0};

  // Worker contexts, handed out per RunBatch; guarded by ctx_mu_.
  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<Ctx>> contexts_;
  std::vector<size_t> free_contexts_;

  // Null with one worker. Last: joins before members die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

Status VerifyCandidates(const TslQuery& chased_query,
                        const std::vector<TslQuery>& chased_views,
                        const ChaseOptions& chase_options,
                        const EquivalenceTester& tester,
                        const CandidateEnumerator& enumerator,
                        const RewriteOptions& options, size_t workers,
                        RewriteResult* result, bool* complete) {
  Pipeline pipeline(chased_query, chased_views, enumerator.atoms(),
                    chase_options, tester, options, workers, result);
  *complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    return pipeline.OnCandidate(enumerator.atoms(), chosen);
  });
  return pipeline.Finish();
}

}  // namespace tslrw
