#include "mediator/mediator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "common/string_util.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/contained.h"
#include "rewrite/view_index.h"
#include "tsl/canonical.h"

namespace tslrw {

namespace {

/// Groups capability views into hedge-partner sets: two views are mutual
/// backups when they are α-equivalent (equal canonical keys — same head
/// shape, so materialized replies carry identical object structure), range
/// over the same source, and expose the same bound-variable set. Hedging to
/// a partner can therefore never change the answer bytes, only which
/// endpoint produced them.
std::map<std::string, std::vector<std::string>> ComputeHedgePartners(
    const std::vector<SourceDescription>& sources) {
  struct GroupKey {
    std::string source;
    std::string canonical;
    std::set<std::string> bound;
    bool operator<(const GroupKey& other) const {
      return std::tie(source, canonical, bound) <
             std::tie(other.source, other.canonical, other.bound);
    }
  };
  std::map<GroupKey, std::vector<std::string>> groups;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) {
      GroupKey key{sd.source, CanonicalizeQuery(cap.view).key,
                   cap.bound_variables};
      groups[key].push_back(cap.view.name);
    }
  }
  std::map<std::string, std::vector<std::string>> partners;
  for (auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    for (const std::string& name : members) {
      std::vector<std::string> others;
      for (const std::string& other : members) {
        if (other != name) others.push_back(other);
      }
      partners[name] = std::move(others);
    }
  }
  return partners;
}

}  // namespace

Status ValidateDescriptions(const std::vector<SourceDescription>& sources) {
  std::set<std::string> names;
  for (const SourceDescription& sd : sources) {
    if (sd.source.empty()) {
      return Status::InvalidArgument("source description without a source");
    }
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name.empty()) {
        return Status::InvalidArgument(
            StrCat("capability view of source ", sd.source, " is unnamed"));
      }
      if (!names.insert(cap.view.name).second) {
        return Status::InvalidArgument(
            StrCat("duplicate capability view name ", cap.view.name));
      }
      for (const Condition& c : cap.view.body) {
        if (c.source != sd.source) {
          return Status::InvalidArgument(
              StrCat("capability view ", cap.view.name, " of source ",
                     sd.source, " ranges over foreign source ", c.source));
        }
      }
      for (const std::string& var : cap.bound_variables) {
        bool found = false;
        for (const Term& v : cap.view.BodyVariables()) {
          found = found || v.var_name() == var;
        }
        if (!found) {
          return Status::InvalidArgument(
              StrCat("bound variable ", var, " does not occur in view ",
                     cap.view.name));
        }
      }
    }
  }
  return Status::OK();
}

std::string MediatorPlan::ToString() const {
  return StrCat("plan(cost=", cost, ", views=[",
                JoinMapped(views_used, ",",
                           [](const std::string& s) { return s; }),
                "]): ", rewriting.ToString());
}

Result<Mediator> Mediator::Make(std::vector<SourceDescription> sources,
                                const StructuralConstraints* constraints) {
  TSLRW_RETURN_NOT_OK(ValidateDescriptions(sources));
  // Run the static analyzer over all capability views: a view with
  // error-level diagnostics would poison every rewriting that uses it, so
  // refuse to build the mediator. Warnings (dead views, redundant
  // conditions) are kept for the caller to log.
  AnalyzerOptions analyzer_options;
  analyzer_options.constraints = constraints;
  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) {
      views.push_back(cap.view);
      analyzer_options.constraint_exempt_sources.insert(cap.view.name);
    }
  }
  AnalysisReport report = Analyzer(analyzer_options).AnalyzeRules(views);
  if (report.has_errors()) {
    return Status::IllFormedQuery(
        StrCat("capability views failed analysis:\n", report.ToString()));
  }
  // Each capability's identity is computed once here: fingerprints for
  // plan footprints and catalog diffs, and the extent-memo key every fetch
  // uses, then read it instead of re-canonicalizing the view.
  for (SourceDescription& sd : sources) {
    for (Capability& cap : sd.capabilities) {
      cap.identity = ComputeCapabilityIdentity(cap);
    }
  }
  Mediator mediator(std::move(sources), constraints, std::move(report));
  mediator.hedge_partners_ = ComputeHedgePartners(mediator.sources_);
  return mediator;
}

Result<Mediator> Mediator::Make(std::vector<SourceDescription> sources,
                                const StructuralConstraints* constraints,
                                std::shared_ptr<const ViewSetIndex> index) {
  TSLRW_ASSIGN_OR_RETURN(Mediator mediator,
                         Make(std::move(sources), constraints));
  TSLRW_RETURN_NOT_OK(mediator.AttachCatalogIndex(std::move(index)));
  return mediator;
}

Status Mediator::AttachCatalogIndex(
    std::shared_ptr<const ViewSetIndex> index) {
  if (index == nullptr) {
    catalog_index_ = nullptr;
    return Status::OK();
  }
  // The index's stored chase outcomes are only exact for the (views,
  // constraints) pair it was compiled under; refuse anything else rather
  // than serve plans from stale structure.
  TSLRW_RETURN_NOT_OK(index->ValidateAgainst(Views(), constraints_));
  catalog_index_ = std::move(index);
  return Status::OK();
}

std::vector<TslQuery> Mediator::Views(
    const std::set<std::string>& excluded) const {
  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      if (excluded.count(cap.view.name) == 0) views.push_back(cap.view);
    }
  }
  return views;
}

const Capability* Mediator::FindCapability(const std::string& name,
                                           std::string* source) const {
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name != name) continue;
      if (source != nullptr) *source = sd.source;
      return &cap;
    }
  }
  return nullptr;
}

std::vector<std::string> Mediator::SourcesOfViews(
    const std::set<std::string>& views) const {
  // A source is unreachable only when every endpoint exporting it is dead:
  // a replicated source with one live mirror still answers. Per-endpoint
  // detail stays in ExecutionReport::fetches.
  std::map<std::string, bool> every_view_dead;
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      bool is_dead = views.count(cap.view.name) > 0;
      auto [it, inserted] = every_view_dead.try_emplace(sd.source, is_dead);
      if (!inserted) it->second = it->second && is_dead;
    }
  }
  std::vector<std::string> out;
  for (const auto& [source, all_dead] : every_view_dead) {
    if (all_dead) out.push_back(source);
  }
  return out;
}

namespace {

/// Whether every occurrence of a bound (`$X`) variable inside \p view_term
/// was instantiated to a constant in \p inst_term. Skolem arguments are
/// inspected recursively, so parameters surfaced through head oids (e.g.
/// `yp(P',YB')`) are covered.
bool TermParametersBound(const Term& view_term, const Term& inst_term,
                         const std::set<std::string>& bound) {
  switch (view_term.kind()) {
    case TermKind::kAtom:
      return true;
    case TermKind::kVariable:
      return bound.count(view_term.var_name()) == 0 || inst_term.is_atom();
    case TermKind::kFunction: {
      if (!inst_term.is_func() ||
          inst_term.args().size() != view_term.args().size()) {
        return true;  // structure changed beyond recognition; accept
      }
      for (size_t i = 0; i < view_term.args().size(); ++i) {
        if (!TermParametersBound(view_term.args()[i], inst_term.args()[i],
                                 bound)) {
          return false;
        }
      }
      return true;
    }
  }
  return true;
}

/// Walks the capability's head and its instantiation in a rewriting body
/// in parallel, checking that every occurrence of a bound (`$X`) variable
/// was instantiated to a constant the mediator can splice in.
bool BoundVariablesInstantiated(const ObjectPattern& view_head,
                                const ObjectPattern& instantiated,
                                const std::set<std::string>& bound) {
  auto needs_constant = [&bound](const Term& t) {
    return t.is_var() && bound.count(t.var_name()) > 0;
  };
  if (!TermParametersBound(view_head.oid, instantiated.oid, bound)) {
    return false;
  }
  if (needs_constant(view_head.label) && !instantiated.label.is_atom()) {
    return false;
  }
  if (view_head.value.is_term() && needs_constant(view_head.value.term()) &&
      !(instantiated.value.is_term() &&
        instantiated.value.term().is_atom())) {
    return false;
  }
  if (view_head.value.is_set() && instantiated.value.is_set()) {
    const SetPattern& vh = view_head.value.set();
    const SetPattern& in = instantiated.value.set();
    if (vh.size() != in.size()) return true;  // structure changed; accept
    for (size_t i = 0; i < vh.size(); ++i) {
      if (!BoundVariablesInstantiated(vh[i], in[i], bound)) return false;
    }
  }
  return true;
}

}  // namespace

Result<MediatorPlanSet> Mediator::PlanOverViews(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options) const {
  TSLRW_ASSIGN_OR_RETURN(RewriteResult rewrites,
                         RewriteQuery(query, views, options));
  MediatorPlanSet set;
  set.truncated = rewrites.truncated;
  set.search.candidates_generated = rewrites.candidates_generated;
  set.search.candidates_tested = rewrites.candidates_tested;
  set.search.chase_cache_hits = rewrites.chase_cache_hits;
  set.search.equiv_cache_hits = rewrites.equiv_cache_hits;
  set.search.batches_dispatched = rewrites.batches_dispatched;
  set.search.verify_wall_ticks = rewrites.verify_wall_ticks;
  // Dependency footprint for the maintenance layer (maint/footprint.h):
  // which views the search consulted, under which identity fingerprints,
  // and what the query itself referenced.
  set.footprint.captured = true;
  set.footprint.view_names = std::move(rewrites.views_touched);
  set.footprint.fired_constraints = std::move(rewrites.fired_constraints);
  set.footprint.chased_query = std::move(rewrites.chased_query);
  set.footprint.query_unsatisfiable = rewrites.query_unsatisfiable;
  for (const Condition& c : query.body) {
    set.footprint.query_sources.insert(c.source);
  }
  for (const std::string& name : set.footprint.view_names) {
    const Capability* cap = FindCapability(name);
    if (cap != nullptr) {
      set.footprint.view_fingerprints[name] = ViewIdentityFingerprint(*cap);
    }
  }
  for (TslQuery& rw : rewrites.rewritings) {
    MediatorPlan plan;
    std::set<std::string> used;
    bool admissible = true;
    for (const Condition& c : rw.body) {
      const Capability* cap = FindCapability(c.source);
      if (cap == nullptr) {
        admissible = false;  // defensive; total rewritings only use views
        break;
      }
      if (!cap->bound_variables.empty() &&
          !BoundVariablesInstantiated(cap->view.head, c.pattern,
                                      cap->bound_variables)) {
        admissible = false;
        break;
      }
      used.insert(c.source);
    }
    if (!admissible) continue;
    plan.views_used.assign(used.begin(), used.end());
    plan.cost = rw.body.size();
    plan.rewriting = std::move(rw);
    set.plans.push_back(std::move(plan));
  }
  std::sort(set.plans.begin(), set.plans.end(),
            [](const MediatorPlan& a, const MediatorPlan& b) {
              return a.cost < b.cost;
            });
  return set;
}

namespace {

uint64_t EffectiveNow(const VirtualClock& clock,
                      const ExecutionReport* report) {
  const uint64_t now = clock.now();
  const uint64_t overlap = report != nullptr ? report->hedge_overlap_ticks : 0;
  return now >= overlap ? now - overlap : 0;
}

/// The effective end-to-end deadline: the earlier of the per-query retry
/// budget (relative to now, converted here) and the admission deadline
/// stamped by the serving layer (already absolute on the shared clock).
uint64_t EffectiveDeadline(const ExecutionPolicy& policy,
                           const VirtualClock* clock) {
  uint64_t deadline = AbsoluteDeadlineTicks(
      clock->now(), policy.retry.per_query_deadline_ticks);
  if (policy.admission_deadline_ticks > 0 &&
      (deadline == 0 || policy.admission_deadline_ticks < deadline)) {
    deadline = policy.admission_deadline_ticks;
  }
  return deadline;
}

}  // namespace

RewriteOptions Mediator::SearchOptions(size_t parallelism, Tracer* tracer,
                                       MetricRegistry* metrics,
                                       const VirtualClock* clock,
                                       uint64_t deadline_ticks,
                                       const ExecutionReport* report) const {
  RewriteOptions options;
  options.constraints = constraints_;
  options.require_total = true;  // only view conditions are executable
  options.parallelism = parallelism;
  options.tracer = tracer;
  options.metrics = metrics;
  // The index declines any view set it was not compiled for (CoversViews),
  // so replans over live-view subsets and the degraded fallback take the
  // full scan automatically and stay byte-identical.
  options.view_index = catalog_index_.get();
  if (clock != nullptr && deadline_ticks > 0) {
    options.should_stop = [clock, deadline_ticks, report] {
      return EffectiveNow(*clock, report) >= deadline_ticks;
    };
  }
  return options;
}

Result<MediatorPlanSet> Mediator::Plan(const TslQuery& query,
                                       size_t rewrite_parallelism,
                                       Tracer* tracer,
                                       MetricRegistry* metrics,
                                       const VirtualClock* deadline_clock,
                                       uint64_t deadline_ticks) const {
  return Plan(query, SearchOptions(rewrite_parallelism, tracer, metrics,
                                   deadline_clock, deadline_ticks, nullptr));
}

Result<MediatorPlanSet> Mediator::Plan(const TslQuery& query,
                                       const RewriteOptions& options) const {
  ScopedSpan span(options.tracer, "mediator.plan_search");
  CountIf(options.metrics, "mediator.plan_searches");
  Result<MediatorPlanSet> set = PlanOverViews(query, Views(), options);
  if (set.ok()) {
    span.Annotate("plans", static_cast<uint64_t>(set->size()));
    span.Annotate("truncated", set->truncated ? "true" : "false");
  }
  return set;
}

Mediator::Frame::Frame(const Mediator& mediator, const ExecutionPolicy& p,
                       const std::string& name)
    : policy(p),
      catalog_wrapper(p.metrics),
      wrapper(p.wrapper != nullptr ? p.wrapper : &catalog_wrapper),
      clock(p.clock != nullptr ? p.clock : &local_clock),
      rng(p.seed),
      answer_name(name.empty() ? "answer" : name),
      deadline_ticks(EffectiveDeadline(p, clock)),
      degrade_on_deadline(p.degrade_on_deadline && p.allow_degraded),
      search(mediator.SearchOptions(p.rewrite_parallelism, p.tracer,
                                    p.metrics, clock, deadline_ticks,
                                    &report)) {
  search.strict_limits = p.strict;
}

uint64_t Mediator::Frame::Now() const { return EffectiveNow(*clock, &report); }

bool Mediator::Frame::Expired() const {
  return deadline_ticks > 0 && Now() >= deadline_ticks;
}

Result<WrapperResult> Mediator::FetchWithRetry(const Capability& capability,
                                               const SourceCatalog& catalog,
                                               Frame& frame) const {
  const ExecutionPolicy& policy = frame.policy;
  MetricRegistry* metrics = policy.metrics;
  ExecutionReport& report = frame.report;
  const std::string& view_name = capability.view.name;
  std::string source;
  FindCapability(view_name, &source);
  FetchRecord* record = report.RecordFor(source, view_name);
  ScopedSpan fetch_span(policy.tracer, "mediator.fetch");
  fetch_span.Annotate("view", view_name);
  fetch_span.Annotate("source", source);
  ResilienceRegistry* res = policy.resilience;

  // Feeds a fetch outcome back into the shared registry (breaker windows
  // and hedge-latency history) and surfaces any state transition.
  auto record_outcome = [&](const std::string& endpoint, bool ok,
                            uint64_t latency_ticks) {
    if (res == nullptr) return;
    BreakerEvent event = ok ? res->RecordSuccess(endpoint, latency_ticks)
                            : res->RecordFailure(endpoint);
    if (event.opened) {
      fetch_span.Event(StrCat("breaker opened: ", endpoint));
      CountIf(metrics, "breaker.opened");
    }
    if (event.closed) {
      fetch_span.Event(StrCat("breaker closed: ", endpoint));
      CountIf(metrics, "breaker.closed");
    }
  };

  // Circuit-breaker admission: one decision per fetch, so a half-open
  // probe admits the whole retried call and its outcome decides whether
  // the breaker closes or re-opens.
  if (res != nullptr && res->breakers_enabled()) {
    BreakerDecision decision = res->Admit(view_name);
    if (decision.half_opened) {
      fetch_span.Event(StrCat("breaker half-open: ", view_name));
      CountIf(metrics, "breaker.half_opened");
    }
    if (!decision.allowed) {
      // Short-circuit: the endpoint is known dead; spend no attempts, no
      // backoff, and no deadline budget on it. Unavailable routes the view
      // into the regular dead-view failover/degraded path.
      record->short_circuited = true;
      ++report.breaker_short_circuits;
      fetch_span.Annotate("short_circuited", "true");
      CountIf(metrics, "breaker.short_circuits");
      return Status::Unavailable(StrCat("circuit breaker open for view ",
                                        view_name, " of source ", source));
    }
  }

  // A reply that arrived after the caller stopped listening is a timeout,
  // not a success, however complete the data was.
  auto call_outcome = [&policy](const Result<WrapperResult>& reply,
                                uint64_t elapsed, const char* what,
                                const std::string& name) {
    const uint64_t limit = policy.retry.per_call_deadline_ticks;
    if (!reply.ok()) return reply.status();
    if (limit == 0 || elapsed <= limit) return Status::OK();
    return Status::DeadlineExceeded(
        StrCat(what, name, " took ", elapsed,
               " tick(s); the per-call deadline is ", limit));
  };

  // Hedge eligibility: enabled, and this view has α-equivalent replica
  // endpoints to fail over to. At most one backup per fetch.
  const std::vector<std::string>* partners = nullptr;
  if (res != nullptr && res->hedging_enabled()) {
    auto it = hedge_partners_.find(view_name);
    if (it != hedge_partners_.end()) partners = &it->second;
  }
  bool hedged = false;

  const size_t max_attempts = std::max<size_t>(policy.retry.max_attempts, 1);
  Status last = Status::Unavailable(
      StrCat("source ", source, " unreachable"));
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (frame.Expired()) {
      fetch_span.Event("query deadline exceeded before attempt");
      CountIf(metrics, "mediator.fetch_deadline_aborts");
      return Status::DeadlineExceeded(
          StrCat("request deadline (t=", frame.deadline_ticks,
                 ") exceeded before attempt ", attempt, " against ",
                 source));
    }
    const uint64_t started = frame.clock->now();
    // The hedge trigger is fixed *before* the primary is issued (as a live
    // system would arm a timer): the primary's own latency must not move
    // the percentile that decides whether to hedge it.
    const uint64_t hedge_delay =
        partners != nullptr ? res->HedgeDelayTicks(view_name) : 0;
    CountIf(metrics, "mediator.fetch_attempts");
    if (attempt > 1) CountIf(metrics, "mediator.retries");
    Result<WrapperResult> fetched = frame.wrapper->Fetch(capability, catalog);
    const uint64_t elapsed = frame.clock->now() - started;
    Status outcome = call_outcome(fetched, elapsed, "view ", view_name);
    record->attempts.push_back(AttemptRecord{started, outcome, 0});
    fetch_span.Event(StrCat("attempt ", attempt, ": ",
                            outcome.ok()
                                ? "ok"
                                : StatusCodeToString(outcome.code())));
    record_outcome(view_name, outcome.ok(), elapsed);

    // Hedge: in a live system the backup fires while the primary is still
    // pending, once the wait passes the endpoint's recent latency
    // percentile. The virtual clock is monotonic and shared, so the backup
    // runs after the primary here and the concurrency is reconstructed
    // arithmetically: backup issue time = started + delay, both completion
    // times are compared, and the overlap is subtracted from all later
    // deadline math via EffectiveNow.
    if (partners != nullptr && !hedged && elapsed > hedge_delay &&
        (outcome.ok() || IsRetryableFailure(outcome))) {
      const Capability* partner_cap = nullptr;
      for (const std::string& partner_name : *partners) {
        const Capability* candidate = FindCapability(partner_name);
        if (candidate == nullptr) continue;
        if (res->breakers_enabled() && !res->Admit(partner_name).allowed) {
          CountIf(metrics, "breaker.short_circuits");
          continue;  // the backup endpoint is known dead too
        }
        partner_cap = candidate;
        break;
      }
      if (partner_cap != nullptr) {
        hedged = true;
        const std::string& partner_name = partner_cap->view.name;
        ++report.hedges_issued;
        fetch_span.Event(StrCat("hedge issued -> ", partner_name, " (delay ",
                                hedge_delay, ")"));
        CountIf(metrics, "mediator.hedges_issued");
        const uint64_t backup_started = frame.clock->now();
        Result<WrapperResult> backup =
            frame.wrapper->Fetch(*partner_cap, catalog);
        // Partner views are α-equivalent over the same source, so the
        // materialized bytes are the answer's either way; evaluation looks
        // the data up under the primary view's name.
        if (backup.ok()) backup->data.set_name(view_name);
        const uint64_t backup_elapsed = frame.clock->now() - backup_started;
        const Status backup_outcome = call_outcome(
            backup, backup_elapsed, "hedge to view ", partner_name);
        FetchRecord* partner_record = report.RecordFor(source, partner_name);
        // RecordFor may grow the fetches vector; the primary's record
        // pointer from the loop head is invalid past this point.
        record = report.RecordFor(source, view_name);
        partner_record->attempts.push_back(
            AttemptRecord{backup_started, backup_outcome, 0});
        partner_record->succeeded =
            partner_record->succeeded || backup_outcome.ok();
        record_outcome(partner_name, backup_outcome.ok(), backup_elapsed);
        // Modeled times relative to the primary's start: the backup was
        // issued at `hedge_delay` and completed at hedge_delay + its own
        // latency; the race resolves on those, ties to the primary.
        const uint64_t backup_done = hedge_delay + backup_elapsed;
        const bool backup_wins =
            backup_outcome.ok() && (!outcome.ok() || backup_done < elapsed);
        // The modeled end of the whole hedged fetch: the winning reply, or
        // the later failure when neither succeeded. The clock ran primary +
        // backup back to back; credit back the ticks where they would have
        // overlapped.
        uint64_t completion = backup_wins ? backup_done : elapsed;
        if (!outcome.ok() && !backup_outcome.ok()) {
          completion = std::max(elapsed, backup_done);
        }
        report.hedge_overlap_ticks += (elapsed + backup_elapsed) - completion;
        if (backup_wins) {
          ++report.hedge_wins;
          record->hedged_to = partner_name;
          fetch_span.Event(StrCat("hedge won: ", partner_name));
          CountIf(metrics, "mediator.hedge_wins");
          fetched = std::move(backup);
          outcome = backup_outcome;
        } else {
          fetch_span.Event("hedge lost");
        }
      }
    }

    if (outcome.ok()) {
      record->succeeded = true;
      record->truncated = record->truncated || !fetched->complete;
      if (!fetched->complete) {
        fetch_span.Annotate("truncated", "true");
        CountIf(metrics, "mediator.fetches_truncated");
      }
      CountIf(metrics, "mediator.fetches_ok");
      ObserveIf(metrics, "mediator.fetch_attempts_per_call", attempt);
      return fetched;
    }
    last = outcome;
    if (!IsRetryableFailure(outcome)) {
      CountIf(metrics, "mediator.fetch_permanent_failures");
      return outcome;
    }
    if (attempt < max_attempts) {
      uint64_t backoff = policy.retry.BackoffAfterAttempt(attempt, &frame.rng);
      if (frame.deadline_ticks > 0) {
        // Never sleep past the request deadline: a zero or expired budget
        // fails fast at the next loop head without waiting at all, and a
        // nearly-spent one waits only the remainder.
        backoff = std::min(
            backoff, RemainingTicks(frame.Now(), frame.deadline_ticks));
      }
      if (backoff > 0) {
        frame.clock->Advance(backoff);
        record->attempts.back().backoff_ticks = backoff;
        report.backoff_ticks_total += backoff;
        fetch_span.Event(StrCat("backoff ", backoff, " tick(s)"));
        CountIf(metrics, "mediator.backoff_ticks", backoff);
      }
    }
  }
  fetch_span.Annotate("exhausted", "true");
  CountIf(metrics, "mediator.fetches_exhausted");
  return last;
}

struct Mediator::FetchedViews {
  SourceCatalog results;
  bool any_truncated = false;
};

Result<Mediator::FetchedViews> Mediator::FetchViews(
    const std::vector<std::string>& views, const SourceCatalog& catalog,
    Frame& frame, std::set<std::string>* dead, std::string* died) const {
  FetchedViews fetched;
  for (const std::string& view_name : views) {
    if (dead->count(view_name) > 0) continue;
    const Capability* cap = FindCapability(view_name);
    if (cap == nullptr) {
      return Status::NotFound(StrCat("unknown capability view ", view_name));
    }
    Result<WrapperResult> result = FetchWithRetry(*cap, catalog, frame);
    if (result.ok()) {
      fetched.any_truncated = fetched.any_truncated || !result->complete;
      fetched.results.Put(std::move(result->data));
      continue;
    }
    // An exhausted budget behaves like a dead endpoint: the plan fails over
    // or the union drops the rules needing this view, and soundness holds.
    // With degrade_on_deadline off, a deadline failure still aborts.
    if (!IsRetryableFailure(result.status()) ||
        (frame.Expired() && !frame.degrade_on_deadline)) {
      return result.status();
    }
    dead->insert(view_name);
    if (died != nullptr) {
      *died = view_name;
      return result.status();
    }
  }
  return fetched;
}

Result<DegradedAnswer> Mediator::RunPlan(const MediatorPlan& plan,
                                         const SourceCatalog& catalog,
                                         Frame& frame,
                                         std::set<std::string>* dead,
                                         std::string* died) const {
  TSLRW_ASSIGN_OR_RETURN(FetchedViews fetched,
                         FetchViews(plan.views_used, catalog, frame, dead,
                                    died));
  // Collect + consolidate at the mediator: evaluate the rewriting over the
  // wrapper results (fusion merges per-source fragments by oid).
  DegradedAnswer answer;
  TSLRW_ASSIGN_OR_RETURN(answer.result,
                         ExecuteRules(TslRuleSet::Single(plan.rewriting),
                                      fetched.results, frame));
  answer.completeness = fetched.any_truncated ? Completeness::kPartial
                                              : Completeness::kComplete;
  return answer;
}

Result<OemDatabase> Mediator::ExecuteRules(const TslRuleSet& rules,
                                           const SourceCatalog& view_results,
                                           const Frame& frame) {
  std::shared_ptr<const IrProgram> program;
  {
    ScopedSpan compile_span(frame.policy.tracer, "plan.compile");
    PlanCompiler compiler(IrPassOptions{}, frame.policy.metrics);
    TSLRW_ASSIGN_OR_RETURN(program, compiler.Compile(rules));
    compile_span.Annotate("ops", static_cast<uint64_t>(program->ops.size()));
  }
  ScopedSpan exec_span(frame.policy.tracer, "plan.exec_ir");
  exec_span.Annotate("ops", static_cast<uint64_t>(program->ops.size()));
  IrExecOptions ir;
  ir.answer_name = frame.answer_name;
  ir.metrics = frame.policy.metrics;
  return ExecuteIr(*program, view_results, ir);
}

Result<OemDatabase> Mediator::Execute(const MediatorPlan& plan,
                                      const SourceCatalog& catalog) const {
  const ExecutionPolicy policy;
  Frame frame(*this, policy, plan.rewriting.name);
  std::set<std::string> dead;
  std::string died;
  TSLRW_ASSIGN_OR_RETURN(DegradedAnswer answer,
                         RunPlan(plan, catalog, frame, &dead, &died));
  return std::move(answer.result);
}

Result<DegradedAnswer> Mediator::Answer(const TslQuery& query,
                                        const SourceCatalog& catalog,
                                        const ExecutionPolicy& policy) const {
  // One frame spans planning and execution, so a per-query deadline covers
  // the whole Answer.
  Frame frame(*this, policy, query.name);
  TSLRW_ASSIGN_OR_RETURN(MediatorPlanSet plans, Plan(query, frame.search));
  return AnswerInFrame(query, plans, catalog, frame);
}

Result<DegradedAnswer> Mediator::AnswerWithPlans(
    const TslQuery& query, const MediatorPlanSet& plans,
    const SourceCatalog& catalog, const ExecutionPolicy& policy) const {
  Frame frame(*this, policy, query.name);
  return AnswerInFrame(query, plans, catalog, frame);
}

Result<DegradedAnswer> Mediator::AnswerInFrame(const TslQuery& query,
                                               const MediatorPlanSet& plans,
                                               const SourceCatalog& catalog,
                                               Frame& frame) const {
  const ExecutionPolicy& policy = frame.policy;
  MetricRegistry* metrics = policy.metrics;
  ExecutionReport& report = frame.report;
  ScopedSpan answer_span(policy.tracer, "mediator.answer");
  answer_span.Annotate("plans", static_cast<uint64_t>(plans.size()));
  CountIf(metrics, "mediator.answers");

  // A strict caller learns here that a cached plan list was itself
  // truncated (Answer would have failed inside the initial search).
  report.plan_search_truncated = plans.truncated;
  report.plan_search = plans.search;
  if (policy.strict && plans.truncated) {
    return Status::ResourceExhausted(
        "plan search was truncated and strict mode forbids serving from a "
        "shortened plan list");
  }
  // Set when the request deadline expired and degrade_on_deadline routes
  // the rest of the request into §7 instead of erroring out.
  bool deadline_hit = false;
  if (plans.empty()) {
    if (!plans.truncated || !frame.Expired()) {
      return Status::NotFound(
          "no capability-conformant plan answers this query");
    }
    // The plan search itself was cut short by the request deadline: the
    // absence of plans is budget exhaustion, not "no plan exists" — fall
    // into §7 rather than report a (possibly wrong) NotFound, or, with
    // degradation disabled, fail fast with the honest status.
    if (!frame.degrade_on_deadline) {
      return Status::DeadlineExceeded(
          "request deadline expired during plan search");
    }
    deadline_hit = true;
  }

  // Liveness is tracked per capability view — one wrapper endpoint each —
  // so replicated sources (two descriptions exporting equivalent views
  // over the same database) fail over independently. The report
  // aggregates dead views back to source names.
  std::set<std::string> dead;
  Status last_failure;
  std::optional<DegradedAnswer> answered;
  // Failover loop: walk a cheapest-first plan list, skipping plans that
  // touch a view already declared dead. Returns non-OK only on hard
  // (non-failover) errors; "list exhausted" is OK with `answered` unset.
  auto try_plans = [&](const std::vector<MediatorPlan>& list) -> Status {
    for (const MediatorPlan& plan : list) {
      bool touches_dead = false;
      for (const std::string& view : plan.views_used) {
        if (dead.count(view) > 0) {
          touches_dead = true;
          break;
        }
      }
      if (touches_dead) {
        ++report.plans_skipped;
        CountIf(metrics, "mediator.plans_skipped");
        answer_span.Event(
            StrCat("plan ", plan.rewriting.name, " skipped: dead view"));
        continue;
      }
      if (frame.Expired()) {
        if (frame.degrade_on_deadline) {
          deadline_hit = true;
          return Status::OK();  // stop attempting; degrade below
        }
        return Status::DeadlineExceeded(
            StrCat("request deadline (t=", frame.deadline_ticks,
                   ") exceeded during plan failover"));
      }
      ++report.plans_attempted;
      CountIf(metrics, "mediator.plans_attempted");
      ScopedSpan attempt_span(policy.tracer, "mediator.plan_attempt");
      attempt_span.Annotate("plan", plan.rewriting.name);
      attempt_span.Annotate("cost", static_cast<uint64_t>(plan.cost));
      std::string died;
      Result<DegradedAnswer> run = RunPlan(plan, catalog, frame, &dead, &died);
      if (run.ok()) {
        attempt_span.Annotate("outcome", "ok");
        answered = std::move(run).value();
        return Status::OK();
      }
      if (!died.empty()) last_failure = run.status();
      if (!frame.Expired()) {
        if (!died.empty()) {
          attempt_span.Annotate("outcome",
                                StrCat("failover: view ", died, " dead"));
          CountIf(metrics, "mediator.failovers");
          continue;  // failover: try the next plan
        }
      } else if (frame.degrade_on_deadline) {
        attempt_span.Annotate("outcome", "deadline");
        deadline_hit = true;
        return Status::OK();  // stop attempting; degrade below
      }
      attempt_span.Annotate("outcome",
                            StatusCodeToString(run.status().code()));
      return run.status();  // hard error, or the query budget is gone
    }
    return Status::OK();
  };

  TSLRW_RETURN_NOT_OK(try_plans(plans.plans));

  // The list is exhausted: re-plan over the live views only. With a
  // truncated first search this can surface plans never enumerated; it is
  // also the natural point to notice nothing total is left.
  if (!answered.has_value() && !deadline_hit && !dead.empty()) {
    const std::vector<TslQuery> live_views = Views(dead);
    if (!live_views.empty()) {
      report.replanned = true;
      CountIf(metrics, "mediator.replans");
      ScopedSpan replan_span(policy.tracer, "mediator.replan");
      replan_span.Annotate("live_views",
                           static_cast<uint64_t>(live_views.size()));
      TSLRW_ASSIGN_OR_RETURN(MediatorPlanSet replanned,
                             PlanOverViews(query, live_views, frame.search));
      replan_span.Annotate("plans", static_cast<uint64_t>(replanned.size()));
      replan_span.EndNow();
      report.plan_search_truncated =
          report.plan_search_truncated || replanned.truncated;
      report.plan_search.Add(replanned.search);
      TSLRW_RETURN_NOT_OK(try_plans(replanned.plans));
    }
  }

  if (answered.has_value()) {
    report.failover = report.plans_attempted + report.plans_skipped > 1;
    report.completeness = answered->completeness;
    report.unreachable_sources = SourcesOfViews(dead);
    report.finished_at_ticks = frame.Now();
    answered->unreachable_sources = report.unreachable_sources;
    answer_span.Annotate("completeness",
                         CompletenessToString(answered->completeness));
    if (report.failover) {
      answer_span.Annotate("failover", "true");
      CountIf(metrics, "mediator.answers_with_failover");
    }
    CountIf(metrics, answered->completeness == Completeness::kComplete
                         ? "mediator.answers_complete"
                         : "mediator.answers_partial");
    answered->report = std::move(report);
    return std::move(*answered);
  }

  if (deadline_hit) {
    // Budget exhausted before or during the request: whatever is still
    // reachable within §7 becomes the answer (possibly empty), graded
    // kDegraded — a resilient server answers late-budget requests with
    // less, not with an error.
    report.deadline_degraded = true;
    CountIf(metrics, "mediator.deadline_degraded");
    answer_span.Annotate("completeness", "deadline-degraded");
    return DegradedFallback(query, catalog, frame, std::move(dead),
                            std::move(report));
  }
  if (!policy.allow_degraded) {
    answer_span.Annotate("completeness", "refused");
    CountIf(metrics, "mediator.answers_refused");
    return last_failure.ok()
               ? Status::Unavailable("every total plan touches a dead source")
               : last_failure;
  }
  answer_span.Annotate("completeness", "degraded-fallback");
  return DegradedFallback(query, catalog, frame, std::move(dead),
                          std::move(report));
}

Result<DegradedAnswer> Mediator::DegradedFallback(
    const TslQuery& query, const SourceCatalog& catalog, Frame& frame,
    std::set<std::string> dead, ExecutionReport report) const {
  // \S7's escape hatch: no total plan survives, but the live views still
  // admit sound, maximally-contained answers — return their union instead
  // of nothing.
  const ExecutionPolicy& policy = frame.policy;
  ScopedSpan degraded_span(policy.tracer, "mediator.degraded_fallback");
  CountIf(policy.metrics, "mediator.degraded_fallbacks");
  const std::vector<TslQuery> live_views = Views(dead);
  ContainedRewritingResult contained;
  if (!live_views.empty()) {
    // strict_limits stays off: it would turn a truncated search into
    // ResourceExhausted, where a smaller union is still a sound answer.
    RewriteOptions options = frame.search;
    options.strict_limits = false;
    TSLRW_ASSIGN_OR_RETURN(
        contained, FindMaximallyContainedRewriting(query, live_views, options));
  }

  // Fetch each view the contained rules need, once; sources that die here
  // take their rules down with them (the union shrinks, soundness holds).
  std::set<std::string> needed;
  for (const TslQuery& rule : contained.rewriting.rules) {
    for (const Condition& c : rule.body) needed.insert(c.source);
  }
  TSLRW_ASSIGN_OR_RETURN(
      FetchedViews fetched,
      FetchViews({needed.begin(), needed.end()}, catalog, frame, &dead,
                 /*died=*/nullptr));
  TslRuleSet live_rules;
  bool dropped_rules = false;
  for (const TslQuery& rule : contained.rewriting.rules) {
    bool live = true;
    for (const Condition& c : rule.body) {
      if (dead.count(c.source) > 0) {
        live = false;
        break;
      }
    }
    if (live) {
      live_rules.rules.push_back(rule);
    } else {
      dropped_rules = true;
    }
  }

  OemDatabase result(frame.answer_name);
  if (!live_rules.rules.empty()) {
    TSLRW_ASSIGN_OR_RETURN(result,
                           ExecuteRules(live_rules, fetched.results, frame));
  }
  DegradedAnswer answer;
  answer.result = std::move(result);
  // The union can still be equivalent to the query (several contained
  // rules covering it together) — then nothing was actually lost.
  bool provably_complete = contained.equivalent && !dropped_rules &&
                           !fetched.any_truncated && !contained.truncated;
  answer.completeness = provably_complete ? Completeness::kComplete
                                          : Completeness::kDegraded;
  answer.unreachable_sources = SourcesOfViews(dead);
  report.completeness = answer.completeness;
  report.unreachable_sources = answer.unreachable_sources;
  report.finished_at_ticks = frame.Now();
  degraded_span.Annotate("contained_rules",
                         static_cast<uint64_t>(
                             contained.rewriting.rules.size()));
  degraded_span.Annotate("live_rules",
                         static_cast<uint64_t>(live_rules.rules.size()));
  degraded_span.Annotate("completeness",
                         CompletenessToString(answer.completeness));
  CountIf(policy.metrics, answer.completeness == Completeness::kComplete
                              ? "mediator.answers_complete"
                              : "mediator.answers_degraded");
  answer.report = std::move(report);
  return answer;
}

}  // namespace tslrw
