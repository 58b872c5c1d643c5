#ifndef TSLRW_MEDIATOR_RESILIENCE_H_
#define TSLRW_MEDIATOR_RESILIENCE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tslrw {

/// \brief Per-endpoint circuit-breaker discipline (docs/ROBUSTNESS.md).
///
/// Liveness in the mediator is per *capability view* (one wrapper endpoint
/// each), and so are breakers: a flapping endpoint is short-circuited into
/// the degraded path instead of being re-probed — and re-timed-out — on
/// every query. The state machine is the classic closed / open / half-open
/// triangle, driven entirely by recorded fetch outcomes:
///
///  - **closed**: outcomes fill a sliding window; when at least
///    `min_samples` are present and the failure fraction reaches
///    `failure_ratio`, the breaker opens.
///  - **open**: every fetch is denied (a *short-circuit*: the caller treats
///    the endpoint as dead without spending attempts, backoff, or deadline
///    budget). After `open_events` further registry events the breaker
///    half-opens.
///  - **half-open**: up to `half_open_probes` fetches are let through;
///    `half_open_successes` successes close the breaker (window cleared),
///    any failure re-opens it and re-arms the cooldown.
///
/// Time base: breakers live across requests, but each request runs its own
/// VirtualClock starting at 0, so request clocks cannot order cross-request
/// history. The registry therefore keeps its own monotonic *event counter*
/// (every recorded outcome or short-circuit advances it) and measures the
/// open cooldown in events. Under a sequential request stream — the chaos
/// drills, the shell, the property suites at parallelism 1 — the counter is
/// a deterministic function of the request history, which is what makes
/// drill reports byte-reproducible.
struct CircuitBreakerPolicy {
  /// Master switch; the default keeps the original always-probe behavior.
  bool enabled = false;
  /// Sliding outcome window per endpoint.
  size_t window = 8;
  /// Minimum outcomes in the window before the breaker may trip.
  size_t min_samples = 4;
  /// Open when failures / samples >= this fraction.
  double failure_ratio = 0.5;
  /// Registry events an open breaker waits out before half-opening.
  uint64_t open_events = 8;
  /// Probe fetches admitted while half-open.
  size_t half_open_probes = 1;
  /// Probe successes required to close again.
  size_t half_open_successes = 1;
};

/// \brief Hedged-fetch discipline: when a primary endpoint is slower than a
/// percentile of its recent history, a backup fetch is issued to an
/// equivalent failover endpoint and the first success wins.
///
/// Determinism: the delay is a percentile over a bounded window of
/// *virtual-tick* latencies recorded in request order, so for a fixed seed
/// and schedule the hedge decision — and therefore the trace — replays
/// exactly. Endpoints are eligible backups only when they export an
/// α-equivalent view of the same source (Mediator::Make precomputes the
/// partner sets), so a hedge can never change the answer, only who
/// materializes it.
struct HedgePolicy {
  /// Master switch; hedging also needs at least one partner endpoint.
  bool enabled = false;
  /// Latency percentile (0..1] of the recent window that arms the hedge.
  double percentile = 0.95;
  /// Latencies remembered per endpoint.
  size_t latency_window = 16;
  /// Samples required before the percentile is trusted.
  size_t min_samples = 3;
  /// Hedge delay used until `min_samples` latencies are recorded.
  uint64_t default_delay_ticks = 4;
};

/// \brief The resilience knobs the serving layer applies to every request.
struct ResiliencePolicy {
  CircuitBreakerPolicy breaker;
  HedgePolicy hedge;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

std::string_view BreakerStateToString(BreakerState state);

/// \brief What a breaker transition looked like, so the caller (the
/// mediator) can translate it into `breaker.*` metrics and trace events
/// without the registry depending on the observability layer.
struct BreakerEvent {
  bool opened = false;
  bool closed = false;
  bool half_opened = false;
};

/// \brief Whether a fetch may proceed, and why.
struct BreakerDecision {
  /// False = short-circuit: treat the endpoint as dead right now.
  bool allowed = true;
  /// The fetch was admitted as a half-open probe.
  bool probe = false;
  /// This call transitioned the breaker open -> half-open.
  bool half_opened = false;
};

/// \brief One endpoint's breaker state, for `stats` / `/statsz`.
struct BreakerSnapshot {
  std::string endpoint;
  BreakerState state = BreakerState::kClosed;
  size_t recent_failures = 0;
  size_t recent_samples = 0;
  uint64_t opens_total = 0;
  uint64_t short_circuits_total = 0;

  /// e.g. `Y97: open (4/4 recent failures, opened 2x, 17 short-circuits)`.
  std::string ToString() const;
};

/// \brief Shared, thread-safe resilience state: per-endpoint circuit
/// breakers and latency windows, living across requests (the QueryServer
/// owns one; `ExecutionPolicy::resilience` points at it). All methods are
/// safe to call from concurrent requests; the state evolution is
/// deterministic whenever the outcome stream is (sequential drills).
class ResilienceRegistry {
 public:
  explicit ResilienceRegistry(ResiliencePolicy policy = {})
      : policy_(policy) {}

  const ResiliencePolicy& policy() const { return policy_; }
  bool breakers_enabled() const { return policy_.breaker.enabled; }
  bool hedging_enabled() const { return policy_.hedge.enabled; }

  /// Consults (and possibly advances) \p endpoint's breaker. Denials count
  /// as registry events, so a fully short-circuited endpoint still marches
  /// toward its half-open probe.
  BreakerDecision Admit(const std::string& endpoint);

  /// Records one successful fetch and its virtual-tick latency.
  BreakerEvent RecordSuccess(const std::string& endpoint,
                             uint64_t latency_ticks);

  /// Records one failed fetch attempt.
  BreakerEvent RecordFailure(const std::string& endpoint);

  /// The hedge-arming delay for \p endpoint: the configured percentile of
  /// its recent successful latencies, or the policy default before enough
  /// samples exist. Never returns 0 (a zero delay would hedge every fetch).
  uint64_t HedgeDelayTicks(const std::string& endpoint) const;

  /// All endpoint breakers, sorted by endpoint name.
  std::vector<BreakerSnapshot> Snapshot() const;

  /// True when no breaker is open or half-open (the recovery criterion the
  /// chaos drills assert).
  bool AllClosed() const;

  /// Drops all endpoint state (breakers closed, latency windows empty).
  void Reset();

 private:
  struct Endpoint {
    BreakerState state = BreakerState::kClosed;
    /// Recent outcomes, true = failure; bounded by policy.breaker.window.
    std::deque<bool> outcomes;
    uint64_t opened_at_event = 0;
    size_t probes_used = 0;
    size_t probe_successes = 0;
    uint64_t opens_total = 0;
    uint64_t short_circuits_total = 0;
    /// Recent successful latencies in ticks, sorted on demand for the
    /// percentile; bounded ring of policy.hedge.latency_window.
    std::vector<uint64_t> latencies;
    size_t latency_next = 0;
  };

  size_t RecentFailures(const Endpoint& endpoint) const;
  /// Applies one outcome to the window and runs the state machine.
  BreakerEvent Record(Endpoint& endpoint, bool failure);

  const ResiliencePolicy policy_;
  mutable std::mutex mu_;
  uint64_t events_ = 0;
  std::map<std::string, Endpoint> endpoints_;
};

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_RESILIENCE_H_
