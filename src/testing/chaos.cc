#include "testing/chaos.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "catalog/compiler.h"
#include "catalog/index_file.h"
#include "cluster/cluster.h"
#include "common/string_util.h"
#include "mediator/mediator.h"
#include "mediator/retry.h"
#include "obs/trace.h"
#include "service/canonical.h"
#include "tsl/canonical.h"

namespace tslrw {

namespace {

/// Mutable drill state shared between the drill loop and every per-request
/// wrapper: the currently active fault schedules (swapped between phases
/// while the server keeps serving) and the saturation gate.
class ChaosState {
 public:
  void SetSchedules(std::map<std::string, FaultSchedule> schedules) {
    std::lock_guard<std::mutex> lock(mu_);
    schedules_ = std::move(schedules);
  }

  std::map<std::string, FaultSchedule> SchedulesSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return schedules_;
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_closed_ = true;
    arrivals_ = 0;
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_closed_ = false;
    }
    gate_cv_.notify_all();
  }

  /// Called by workers from inside a fetch. Blocks (wall time only — the
  /// virtual clock never moves, so deadlines are unaffected) while the
  /// gate is closed; a no-op otherwise.
  void WaitAtGate() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!gate_closed_) return;
    ++arrivals_;
    arrival_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return !gate_closed_; });
  }

  /// Blocks the drill thread until \p n workers are parked at the gate —
  /// the point where the pool is provably saturated and queueing begins.
  void AwaitArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    arrival_cv_.wait(lock, [this, n] { return arrivals_ >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, FaultSchedule> schedules_;
  bool gate_closed_ = false;
  size_t arrivals_ = 0;
  std::condition_variable gate_cv_;
  std::condition_variable arrival_cv_;
};

/// Per-request wrapper: a CatalogWrapper behind a FaultInjector whose
/// schedules are the drill's *current* phase faults, plus the saturation
/// gate in front of every fetch.
class ChaosWrapper : public Wrapper {
 public:
  ChaosWrapper(std::shared_ptr<ChaosState> state, uint64_t seed,
               VirtualClock* clock)
      : state_(std::move(state)), injector_(&base_, seed, clock) {
    for (auto& [key, schedule] : state_->SchedulesSnapshot()) {
      injector_.SetSchedule(key, std::move(schedule));
    }
  }

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    state_->WaitAtGate();
    return injector_.Fetch(capability, catalog);
  }

 private:
  std::shared_ptr<ChaosState> state_;
  CatalogWrapper base_;
  FaultInjector injector_;
};

std::set<std::string> RootKeys(const OemDatabase& db) {
  std::set<std::string> keys;
  for (const Oid& root : db.roots()) keys.insert(root.ToString());
  return keys;
}

std::string_view ShortState(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

/// One phase's outcome tallies, accumulated from deterministic per-answer
/// data only (never wall time or scheduling order).
struct PhaseTally {
  size_t complete = 0;
  size_t partial = 0;
  size_t degraded = 0;
  size_t failed = 0;
  size_t rejected = 0;
  size_t hedges = 0;
  size_t hedge_wins = 0;
  size_t short_circuits = 0;
  size_t deadline_degraded = 0;
};

std::string TallyLine(const PhaseTally& tally, size_t requests) {
  return StrCat(requests, " request(s): ", tally.complete, " complete, ",
                tally.partial, " partial, ", tally.degraded, " degraded, ",
                tally.failed, " failed, ", tally.rejected,
                " rejected; hedges ", tally.hedges, " issued/",
                tally.hedge_wins, " won, short-circuits ",
                tally.short_circuits,
                ", deadline-degraded ", tally.deadline_degraded);
}

std::string BreakerLine(const std::vector<BreakerSnapshot>& breakers) {
  std::string line = "  breakers:";
  for (const BreakerSnapshot& breaker : breakers) {
    line += StrCat(" ", breaker.endpoint, "=", ShortState(breaker.state));
  }
  return line + "\n";
}

/// One breaker line for a single-shard drill (the historical format), one
/// per shard otherwise — each shard's registry is its own failure domain.
std::string BreakerLines(const ShardRouter& router) {
  if (router.shards() == 1) {
    return BreakerLine(router.resilience(0).Snapshot());
  }
  std::string lines;
  for (size_t s = 0; s < router.shards(); ++s) {
    std::string line = StrCat("  breakers[s", s, "]:");
    for (const BreakerSnapshot& breaker : router.resilience(s).Snapshot()) {
      line += StrCat(" ", breaker.endpoint, "=", ShortState(breaker.state));
    }
    lines += line + "\n";
  }
  return lines;
}

}  // namespace

std::vector<ChaosPhase> StandardChaosScript(
    const std::vector<SourceDescription>& sources,
    const ChaosOptions& options) {
  // Fault targets: prefer views with an α-equivalent replica on the same
  // source (failover and hedging then have somewhere to go); magnitudes
  // come off the drill seed so different seeds exercise different storms.
  std::vector<std::string> views;
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      groups;
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      views.push_back(cap.view.name);
      groups[{source.source, CanonicalizeQuery(cap.view).key}].push_back(
          cap.view.name);
    }
  }
  std::vector<std::string> replicated;
  for (const auto& [key, members] : groups) {
    if (members.size() > 1) {
      replicated.insert(replicated.end(), members.begin(), members.end());
    }
  }
  const std::vector<std::string>& pool =
      replicated.empty() ? views : replicated;

  // The source owning the replicated pool: storms and outages keyed by it
  // hit every endpoint at once, whichever one plans happen to prefer.
  std::string pool_source;
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      if (cap.view.name == pool.front()) pool_source = source.source;
    }
  }

  DeterministicRng rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  const std::string flap_target = pool[rng.NextUint64() % pool.size()];
  const std::string storm_target = pool[rng.NextUint64() % pool.size()];
  const uint64_t storm_ticks = 6 + rng.NextUint64() % 26;
  const std::string flaky_target = views[rng.NextUint64() % views.size()];
  const double flaky_p = 0.35 + 0.4 * rng.NextUnit();

  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  FaultSchedule storm;
  storm.steady_state = Fault::SlowBy(storm_ticks);
  // One endpoint 3x slower than its source's baseline storm: view-keyed
  // schedules take precedence, so whichever endpoint plans prefer, the
  // latency spread guarantees hedges fire (and win when the slow endpoint
  // is the preferred one).
  FaultSchedule storm_hot;
  storm_hot.steady_state = Fault::SlowBy(storm_ticks * 3);
  FaultSchedule flaky;
  flaky.steady_state = Fault::Flaky(flaky_p);

  std::vector<ChaosPhase> script;
  script.push_back({"baseline", {}, ChaosPhase::Action::kNone});
  script.push_back(
      {"endpoint-flap", {{flap_target, dead}}, ChaosPhase::Action::kNone});
  std::map<std::string, FaultSchedule> storm_faults;
  if (!pool_source.empty()) storm_faults[pool_source] = storm;
  storm_faults[storm_target] = storm_hot;
  script.push_back(
      {"latency-storm", std::move(storm_faults), ChaosPhase::Action::kNone});
  script.push_back(
      {"flaky-network", {{flaky_target, flaky}}, ChaosPhase::Action::kNone});
  if (!pool_source.empty()) {
    // Every endpoint of the replicated source dead: failover has nowhere
    // to go, answers degrade per §7, and both breakers must open — then
    // re-close during recovery.
    script.push_back(
        {"source-outage", {{pool_source, dead}}, ChaosPhase::Action::kNone});
  }
  script.push_back(
      {"index-corruption", {}, ChaosPhase::Action::kIndexCorruption});
  script.push_back(
      {"snapshot-swap-race", {}, ChaosPhase::Action::kCatalogSwapRace});
  if (options.cluster_shards > 1) {
    // A network partition severs a shard from the router *and* a source
    // from the survivors: partitioned keys re-route to the ring successor
    // while answers degrade per §7, then the rejoin restores the baseline.
    // Saturation is skipped — its worker/queue arithmetic assumes one pool.
    std::map<std::string, FaultSchedule> partition_faults;
    if (!pool_source.empty()) partition_faults[pool_source] = dead;
    script.push_back({"shard-partition", std::move(partition_faults),
                      ChaosPhase::Action::kShardPartition});
  } else {
    script.push_back(
        {"pool-saturation", {}, ChaosPhase::Action::kPoolSaturation});
  }
  return script;
}

Result<ChaosDrillResult> RunChaosDrill(
    const std::vector<SourceDescription>& sources,
    const SourceCatalog& catalog, const std::vector<TslQuery>& queries,
    const std::vector<ChaosPhase>& script, const ChaosOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("chaos drill needs at least one query");
  }

  // Fault-free baselines: the soundness yardstick for every drilled
  // answer. Computed through a plain mediator (no faults, no server).
  Result<Mediator> made = Mediator::Make(sources);
  if (!made.ok()) return made.status();
  std::vector<std::string> baseline_text;
  std::vector<std::set<std::string>> baseline_roots;
  for (const TslQuery& query : queries) {
    Result<DegradedAnswer> answer = made->Answer(query, catalog);
    if (!answer.ok()) return answer.status();
    if (!answer->complete()) {
      return Status::InvalidArgument(
          StrCat("chaos drill fixture: query '", query.name,
                 "' is not answerable fault-free"));
    }
    baseline_text.push_back(answer->result.ToString());
    baseline_roots.push_back(RootKeys(answer->result));
  }

  // The drilled server: resilience on (a drill without breakers has
  // nothing to recover), every request on the drill's deadline budget,
  // fetches routed through the phase-switchable chaos wrapper.
  ServerOptions server_options = options.server;
  server_options.request_deadline_ticks = options.request_deadline_ticks;
  if (!server_options.resilience.breaker.enabled) {
    server_options.resilience.breaker.enabled = true;
    server_options.resilience.hedge.enabled = true;
  }
  auto state = std::make_shared<ChaosState>();
  ClusterOptions cluster_options;
  cluster_options.shards = std::max<size_t>(options.cluster_shards, 1);
  cluster_options.server = server_options;
  ShardRouter server(
      std::move(made).ValueOrDie(), catalog, cluster_options,
      [state](VirtualClock* clock, uint64_t seed,
              MetricRegistry*) -> std::unique_ptr<Wrapper> {
        return std::make_unique<ChaosWrapper>(state, seed, clock);
      });
  const size_t shards = server.shards();
  // Aggregate plan-cache residency across the shards (each shard caches
  // the keys it owns; the drill's retention checks are about the union).
  auto cache_entries = [&server]() {
    return server.stats().TotalPlanCache().entries;
  };

  ChaosDrillResult result;
  std::string& report = result.report;
  report = StrCat("chaos drill: seed=", options.seed, ", ", queries.size(),
                  " quer", queries.size() == 1 ? "y" : "ies", ", ",
                  script.size(), " phase(s), deadline ",
                  options.request_deadline_ticks, " tick(s)",
                  shards > 1 ? StrCat(", ", shards, " shard(s)") : "", "\n");
  DeterministicRng rng(options.seed);

  auto violation = [&result](std::string what) {
    result.violations.push_back(std::move(what));
  };

  // Absorbs one answered request into the tallies and checks soundness:
  // roots ⊆ baseline always, byte-identity when the answer claims
  // completeness.
  auto absorb = [&](const std::string& phase_name, size_t request_index,
                    size_t query_index,
                    const Result<ServeResponse>& response, PhaseTally* tally) {
    if (!response.ok()) {
      ++tally->failed;
      return;
    }
    const DegradedAnswer& answer = response->answer;
    switch (answer.completeness) {
      case Completeness::kComplete:
        ++tally->complete;
        break;
      case Completeness::kPartial:
        ++tally->partial;
        break;
      case Completeness::kDegraded:
        ++tally->degraded;
        break;
    }
    tally->hedges += answer.report.hedges_issued;
    tally->hedge_wins += answer.report.hedge_wins;
    tally->short_circuits += answer.report.breaker_short_circuits;
    if (answer.report.deadline_degraded) ++tally->deadline_degraded;

    const std::set<std::string> roots = RootKeys(answer.result);
    if (!std::includes(baseline_roots[query_index].begin(),
                       baseline_roots[query_index].end(), roots.begin(),
                       roots.end())) {
      result.sound = false;
      violation(StrCat("phase ", phase_name, " request ", request_index,
                       " (", queries[query_index].name,
                       "): answer roots are not a subset of the fault-free "
                       "baseline"));
    }
    if (answer.completeness == Completeness::kComplete &&
        answer.result.ToString() != baseline_text[query_index]) {
      result.sound = false;
      violation(StrCat("phase ", phase_name, " request ", request_index,
                       " (", queries[query_index].name,
                       "): complete answer is not byte-identical to the "
                       "fault-free baseline"));
    }
  };

  for (const ChaosPhase& phase : script) {
    state->SetSchedules(phase.faults);
    PhaseTally tally;
    std::string action_note;

    if (phase.action == ChaosPhase::Action::kIndexCorruption) {
      // Corrupt the serialized catalog-index image in memory and prove the
      // loader refuses it — a corrupt index must become a clean kDataLoss,
      // never a silently wrong planner. Then attach the pristine index to
      // the live server (the plan cache survives: indexed searches are
      // byte-identical).
      Result<std::shared_ptr<const CompiledCatalog>> compiled =
          CompileCatalog(sources, nullptr);
      if (!compiled.ok()) return compiled.status();
      std::string image = SerializeCatalog(**compiled);
      image[image.size() / 2] =
          static_cast<char>(image[image.size() / 2] ^ 0x40);
      Result<std::shared_ptr<const CompiledCatalog>> loaded =
          DeserializeCatalog(image);
      if (loaded.ok() || !loaded.status().IsDataLoss()) {
        result.sound = false;
        violation(StrCat("phase ", phase.name,
                         ": corrupted index image was not rejected with "
                         "data loss (got ",
                         loaded.ok() ? "OK" : loaded.status().ToString(),
                         ")"));
      }
      Status attached = server.AttachCatalogIndex(*compiled);
      if (!attached.ok()) {
        result.sound = false;
        violation(StrCat("phase ", phase.name,
                         ": pristine index rejected: ",
                         attached.ToString()));
      }
      action_note =
          "  [index] corrupt image rejected (data loss); pristine index "
          "attached to the live server\n";
    }

    if (phase.action == ChaosPhase::Action::kPoolSaturation) {
      // Park every worker inside a fetch, fill the bounded queue, and
      // prove the overflow rejects deterministically while the retry-after
      // hint reports the backlog; then open the gate and drain. Scripts
      // only schedule this for single-shard drills, where the one pool's
      // worker/queue arithmetic below is exact.
      const ServerStats before = server.stats().shard[0];
      const size_t workers = before.threads;
      const size_t capacity = before.queue_capacity;
      state->CloseGate();
      std::vector<std::future<Result<ServeResponse>>> futures;
      std::vector<size_t> future_queries;
      auto submit = [&](size_t i) -> bool {
        ServeOptions serve;
        serve.seed = rng.NextUint64();
        const size_t query_index = i % queries.size();
        auto submitted = server.Submit(queries[query_index], serve);
        if (!submitted.ok()) {
          if (!submitted.status().IsResourceExhausted()) {
            violation(StrCat("phase ", phase.name,
                             ": overload rejection was not "
                             "kResourceExhausted: ",
                             submitted.status().ToString()));
            result.sound = false;
          }
          ++tally.rejected;
          return false;
        }
        futures.push_back(std::move(submitted).ValueOrDie());
        future_queries.push_back(query_index);
        return true;
      };
      for (size_t i = 0; i < workers; ++i) submit(i);
      state->AwaitArrivals(workers);
      for (size_t i = 0; i < capacity; ++i) submit(workers + i);
      size_t overflow_rejected = 0;
      for (size_t i = 0; i < options.saturation_overflow; ++i) {
        if (!submit(workers + capacity + i)) ++overflow_rejected;
      }
      const size_t hint = server.stats().shard[0].retry_after_queued;
      state->OpenGate();
      for (size_t i = 0; i < futures.size(); ++i) {
        absorb(phase.name, i, future_queries[i], futures[i].get(), &tally);
      }
      if (overflow_rejected != options.saturation_overflow) {
        result.sound = false;
        violation(StrCat("phase ", phase.name, ": expected ",
                         options.saturation_overflow,
                         " overflow rejection(s), got ", overflow_rejected));
      }
      action_note = StrCat("  [pool] ", workers, " worker(s) parked, ",
                           capacity, " queued, ", overflow_rejected,
                           " overflow rejection(s), retry-after hint ~", hint,
                           " queued\n");
      report += StrCat("phase ", phase.name, ": ",
                       TallyLine(tally, futures.size() + tally.rejected),
                       "\n", action_note, BreakerLines(server));
      continue;
    }

    // Sequential phases: requests round-robin the queries; the first one
    // is traced and its span tree appended to the drill's trace dump.
    const size_t plan_entries_before = cache_entries();
    size_t partition_victim = shards;
    uint64_t rerouted_before = 0;
    if (phase.action == ChaosPhase::Action::kShardPartition && shards > 1) {
      // Partition the shard owning the first drill query, so at least one
      // drilled key provably re-routes to its ring successor.
      partition_victim =
          server.HomeOf(MakePlanCacheKey(queries[0]).fingerprint);
      rerouted_before = server.stats().rerouted;
      server.SetShardDown(partition_victim, true);
    }
    for (size_t i = 0; i < options.requests_per_phase; ++i) {
      if (phase.action == ChaosPhase::Action::kShardPartition &&
          partition_victim < shards &&
          i == std::max<size_t>(options.requests_per_phase / 2, 1)) {
        // Rejoin: the shard comes back with its snapshot, plan cache, and
        // breakers intact, and the partition's source faults clear.
        server.SetShardDown(partition_victim, false);
        state->SetSchedules({});
        const uint64_t rerouted =
            server.stats().rerouted - rerouted_before;
        action_note = StrCat("  [partition] shard ", partition_victim,
                             " partitioned for ", i,
                             " request(s) (", rerouted,
                             " re-routed to its ring successor), then "
                             "rejoined; faults cleared\n");
        if (rerouted == 0) {
          result.sound = false;
          violation(StrCat("phase ", phase.name,
                           ": no request re-routed around the partitioned "
                           "shard"));
        }
      }
      if (phase.action == ChaosPhase::Action::kCatalogSwapRace &&
          i == options.requests_per_phase / 2) {
        server.ReplaceCatalog(catalog);  // answer-equivalent snapshot
        const size_t entries_after = cache_entries();
        if (entries_after < plan_entries_before) {
          result.sound = false;
          violation(StrCat("phase ", phase.name,
                           ": plan cache shrank across an answer-equivalent "
                           "catalog swap (", plan_entries_before, " -> ",
                           entries_after, ")"));
        }
        action_note = StrCat("  [swap] answer-equivalent catalog published "
                             "mid-phase; plan cache retained (",
                             entries_after, " entr",
                             entries_after == 1 ? "y" : "ies", ")\n");
      }
      const size_t query_index = i % queries.size();
      ServeOptions serve;
      serve.seed = rng.NextUint64();
      Tracer tracer(nullptr);
      if (i == 0) serve.tracer = &tracer;
      Result<ServeResponse> response =
          server.Answer(queries[query_index], serve);
      absorb(phase.name, i, query_index, response, &tally);
      if (i == 0) {
        result.traces += StrCat("=== phase ", phase.name, " request 0 (",
                                queries[query_index].name, ")\n",
                                tracer.ToText());
      }
    }
    if (phase.action == ChaosPhase::Action::kShardPartition &&
        !phase.faults.empty() && options.requests_per_phase >= 2 &&
        tally.partial + tally.degraded == 0) {
      result.sound = false;
      violation(StrCat("phase ", phase.name,
                       ": the partition severed a source but no answer "
                       "degraded per §7"));
    }
    report += StrCat("phase ", phase.name, ": ",
                     TallyLine(tally, options.requests_per_phase), "\n",
                     action_note, BreakerLines(server));
  }

  // Recovery: faults cleared, keep serving until every breaker re-closes.
  // Serving traffic re-probes the endpoints plans prefer; replica
  // endpoints outside every preferred plan get no organic traffic, so the
  // drill also runs explicit health probes against them — exactly what a
  // deployment's health checker does for shadow replicas.
  state->SetSchedules({});
  std::map<std::string, const Capability*> endpoint_caps;
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      endpoint_caps[cap.view.name] = &cap;
    }
  }
  CatalogWrapper probe_wrapper;
  size_t rounds = 0;
  size_t probes = 0;
  while (!server.AllBreakersClosed() &&
         rounds < options.max_recovery_rounds) {
    ++rounds;
    for (const TslQuery& query : queries) {
      ServeOptions serve;
      serve.seed = rng.NextUint64();
      (void)server.Answer(query, serve);
    }
    // Each shard's registry is probed independently: organic traffic only
    // reaches a key's owning shard, so the other shards' breakers depend
    // on these probes — as shadow replicas depend on a health checker.
    for (size_t s = 0; s < shards; ++s) {
      ResilienceRegistry& registry = server.resilience(s);
      for (const BreakerSnapshot& breaker : registry.Snapshot()) {
        if (breaker.state == BreakerState::kClosed) continue;
        auto cap = endpoint_caps.find(breaker.endpoint);
        if (cap == endpoint_caps.end()) continue;
        if (!registry.Admit(breaker.endpoint).allowed) continue;
        ++probes;
        Result<WrapperResult> fetched =
            probe_wrapper.Fetch(*cap->second, catalog);
        if (fetched.ok()) {
          registry.RecordSuccess(breaker.endpoint, /*latency_ticks=*/0);
        } else {
          registry.RecordFailure(breaker.endpoint);
        }
      }
    }
  }
  const bool all_closed = server.AllBreakersClosed();
  if (!all_closed) {
    result.recovered = false;
    violation(StrCat("recovery: breakers still open after ", rounds,
                     " fault-free round(s)"));
  }
  bool answers_match = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    ServeOptions serve;
    serve.seed = rng.NextUint64();
    Result<ServeResponse> response = server.Answer(queries[i], serve);
    if (!response.ok() || !response->answer.complete() ||
        response->answer.result.ToString() != baseline_text[i]) {
      answers_match = false;
      result.recovered = false;
      violation(StrCat("recovery: query '", queries[i].name,
                       "' did not return the fault-free baseline answer"));
    }
  }
  const size_t final_entries = cache_entries();
  const bool cache_retained = final_entries >= queries.size();
  if (!cache_retained) {
    result.recovered = false;
    violation(StrCat("recovery: plan cache lost entries (", final_entries,
                     " < ", queries.size(), ")"));
  }
  report += StrCat(
      "recovery: ", rounds, " fault-free round(s), ", probes,
      " health probe(s); breakers ",
      all_closed ? "all closed" : "NOT all closed", "; answers ",
      answers_match ? "byte-identical to fault-free baseline" : "DIVERGED",
      "; plan cache ", cache_retained ? "retained" : "LOST", " (",
      final_entries, " entr", final_entries == 1 ? "y" : "ies", ")\n");
  report += "final breakers:\n";
  for (size_t s = 0; s < shards; ++s) {
    for (const BreakerSnapshot& breaker : server.resilience(s).Snapshot()) {
      report += StrCat("  ", shards > 1 ? StrCat("s", s, " ") : "",
                       breaker.ToString(), "\n");
    }
  }
  report += StrCat("verdict: ", result.sound ? "SOUND" : "UNSOUND", ", ",
                   result.recovered ? "RECOVERED" : "NOT-RECOVERED", "\n");
  return result;
}

}  // namespace tslrw
