// Unit tests for the resilience primitives under the serving layer
// (docs/ROBUSTNESS.md): the per-endpoint circuit-breaker state machine,
// the percentile-based hedge delay, and the deadline/backoff arithmetic
// of RetryPolicy — including the edge cases the chaos drills lean on
// (expired deadlines fail fast with no sleep; backoff math saturates
// instead of overflowing next to a deadline).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "mediator/resilience.h"
#include "mediator/retry.h"
#include "mediator/wrapper.h"
#include "obs/metrics.h"
#include "oem/parser.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

// --- deadline arithmetic ----------------------------------------------------

TEST(RetryDeadlineTest, ZeroBudgetMeansNoDeadline) {
  EXPECT_EQ(AbsoluteDeadlineTicks(0, 0), 0u);
  EXPECT_EQ(AbsoluteDeadlineTicks(12345, 0), 0u);
  EXPECT_EQ(RemainingTicks(0, 0), UINT64_MAX);
  EXPECT_EQ(RemainingTicks(UINT64_MAX, 0), UINT64_MAX);
}

TEST(RetryDeadlineTest, AbsoluteDeadlineSaturatesInsteadOfWrapping) {
  EXPECT_EQ(AbsoluteDeadlineTicks(10, 5), 15u);
  EXPECT_EQ(AbsoluteDeadlineTicks(UINT64_MAX - 3, 3), UINT64_MAX);
  // now + budget would wrap to a tiny (already expired) deadline; it must
  // pin to UINT64_MAX instead.
  EXPECT_EQ(AbsoluteDeadlineTicks(UINT64_MAX - 3, 4), UINT64_MAX);
  EXPECT_EQ(AbsoluteDeadlineTicks(UINT64_MAX, UINT64_MAX), UINT64_MAX);
}

TEST(RetryDeadlineTest, ExpiredDeadlineHasZeroRemaining) {
  EXPECT_EQ(RemainingTicks(4, 5), 1u);
  EXPECT_EQ(RemainingTicks(5, 5), 0u);
  EXPECT_EQ(RemainingTicks(6, 5), 0u);
  EXPECT_EQ(RemainingTicks(UINT64_MAX, 5), 0u);
}

// --- backoff arithmetic -----------------------------------------------------

TEST(RetryBackoffTest, GrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ticks = 2;
  policy.multiplier = 2.0;
  policy.max_backoff_ticks = 9;
  EXPECT_EQ(policy.BackoffAfterAttempt(1, nullptr), 2u);
  EXPECT_EQ(policy.BackoffAfterAttempt(2, nullptr), 4u);
  EXPECT_EQ(policy.BackoffAfterAttempt(3, nullptr), 8u);
  EXPECT_EQ(policy.BackoffAfterAttempt(4, nullptr), 9u);
  EXPECT_EQ(policy.BackoffAfterAttempt(9, nullptr), 9u);
}

TEST(RetryBackoffTest, NoWaitPrecedesAnAttemptThatNeverHappens) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ticks = 5;
  EXPECT_EQ(policy.BackoffAfterAttempt(3, nullptr), 0u);
  EXPECT_EQ(policy.BackoffAfterAttempt(100, nullptr), 0u);
  // max_attempts = 0 behaves as 1: one try, no backoff ever.
  policy.max_attempts = 0;
  EXPECT_EQ(policy.BackoffAfterAttempt(1, nullptr), 0u);
}

TEST(RetryBackoffTest, HugeAttemptNumbersSaturateWithoutOverflow) {
  // Doubling past 2^63 must saturate at the cap, not wrap through
  // llround's UB range. A cap of UINT64_MAX means every late attempt
  // waits exactly the cap.
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ticks = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ticks = UINT64_MAX;
  EXPECT_EQ(policy.BackoffAfterAttempt(999, nullptr), UINT64_MAX);
  EXPECT_EQ(policy.BackoffAfterAttempt(70, nullptr), UINT64_MAX);
}

TEST(RetryBackoffTest, JitterIsSeededAndBounded) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ticks = 100;
  policy.max_backoff_ticks = 100;
  policy.jitter = 0.5;
  DeterministicRng a(42), b(42), c(43);
  const uint64_t first = policy.BackoffAfterAttempt(1, &a);
  EXPECT_EQ(policy.BackoffAfterAttempt(1, &b), first);
  EXPECT_GE(first, 50u);  // drawn from [(1 - jitter) * b, b]
  EXPECT_LE(first, 100u);
  // A different seed is allowed to (and here does) land elsewhere.
  EXPECT_NE(policy.BackoffAfterAttempt(1, &c), first);
}

// --- circuit breakers -------------------------------------------------------

ResiliencePolicy SmallBreakerPolicy() {
  ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.window = 4;
  policy.breaker.min_samples = 4;
  policy.breaker.failure_ratio = 0.5;
  policy.breaker.open_events = 3;
  policy.breaker.half_open_probes = 1;
  policy.breaker.half_open_successes = 1;
  return policy;
}

TEST(CircuitBreakerTest, DisabledRegistryAlwaysAdmits) {
  ResilienceRegistry registry;  // default policy: breakers off
  for (int i = 0; i < 10; ++i) registry.RecordFailure("ep");
  const BreakerDecision decision = registry.Admit("ep");
  EXPECT_TRUE(decision.allowed);
  EXPECT_FALSE(decision.probe);
  EXPECT_TRUE(registry.AllClosed());
}

TEST(CircuitBreakerTest, OpensAtTheFailureRatioAndShortCircuits) {
  ResilienceRegistry registry(SmallBreakerPolicy());
  // Three failures: window not yet at min_samples, still closed.
  for (int i = 0; i < 3; ++i) {
    const BreakerEvent event = registry.RecordFailure("ep");
    EXPECT_FALSE(event.opened);
  }
  EXPECT_TRUE(registry.AllClosed());
  // The fourth failure fills the window at 4/4 >= 0.5: open.
  EXPECT_TRUE(registry.RecordFailure("ep").opened);
  EXPECT_FALSE(registry.AllClosed());
  // While open, fetches are denied — and each denial is counted.
  const BreakerDecision denied = registry.Admit("ep");
  EXPECT_FALSE(denied.allowed);
  const std::vector<BreakerSnapshot> snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].state, BreakerState::kOpen);
  EXPECT_EQ(snapshots[0].opens_total, 1u);
  EXPECT_EQ(snapshots[0].short_circuits_total, 1u);
  EXPECT_NE(snapshots[0].ToString().find("ep: open"), std::string::npos);
}

TEST(CircuitBreakerTest, SuccessfulProbeClosesTheBreaker) {
  ResilienceRegistry registry(SmallBreakerPolicy());
  for (int i = 0; i < 4; ++i) registry.RecordFailure("ep");
  // The open cooldown is measured in registry events; denials advance it,
  // so a steadily short-circuited endpoint still reaches its probe.
  size_t denials = 0;
  BreakerDecision decision;
  do {
    decision = registry.Admit("ep");
    if (!decision.allowed) ++denials;
    ASSERT_LE(denials, 16u) << "breaker never half-opened";
  } while (!decision.allowed);
  EXPECT_TRUE(decision.probe);
  EXPECT_TRUE(decision.half_opened);
  EXPECT_EQ(denials, 3u);  // open_events = 3
  // The probe succeeds: closed again, window cleared.
  EXPECT_TRUE(registry.RecordSuccess("ep", 1).closed);
  EXPECT_TRUE(registry.AllClosed());
  const std::vector<BreakerSnapshot> snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].recent_samples, 0u);
}

TEST(CircuitBreakerTest, FailedProbeReopensAndReArmsTheCooldown) {
  ResilienceRegistry registry(SmallBreakerPolicy());
  for (int i = 0; i < 4; ++i) registry.RecordFailure("ep");
  BreakerDecision decision;
  do {
    decision = registry.Admit("ep");
  } while (!decision.allowed);
  ASSERT_TRUE(decision.probe);
  EXPECT_TRUE(registry.RecordFailure("ep").opened);
  // Straight back to denying — the cooldown restarted.
  EXPECT_FALSE(registry.Admit("ep").allowed);
  const std::vector<BreakerSnapshot> snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].opens_total, 2u);
}

TEST(CircuitBreakerTest, MixedOutcomesBelowTheRatioStayClosed) {
  ResiliencePolicy policy = SmallBreakerPolicy();
  policy.breaker.failure_ratio = 0.75;
  ResilienceRegistry registry(policy);
  // Alternating success/failure holds the window at 2/4 < 0.75.
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      registry.RecordFailure("ep");
    } else {
      registry.RecordSuccess("ep", 1);
    }
    EXPECT_TRUE(registry.AllClosed()) << "tripped after outcome " << i;
  }
}

TEST(CircuitBreakerTest, ResetDropsAllEndpointState) {
  ResilienceRegistry registry(SmallBreakerPolicy());
  for (int i = 0; i < 4; ++i) registry.RecordFailure("ep");
  EXPECT_FALSE(registry.AllClosed());
  registry.Reset();
  EXPECT_TRUE(registry.AllClosed());
  EXPECT_TRUE(registry.Snapshot().empty());
}

// --- hedge delay ------------------------------------------------------------

TEST(HedgeDelayTest, DefaultsUntilEnoughSamples) {
  ResiliencePolicy policy;
  policy.hedge.enabled = true;
  policy.hedge.min_samples = 3;
  policy.hedge.default_delay_ticks = 7;
  ResilienceRegistry registry(policy);
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 7u);
  registry.RecordSuccess("ep", 50);
  registry.RecordSuccess("ep", 50);
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 7u);  // 2 < min_samples
  registry.RecordSuccess("ep", 50);
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 50u);
}

TEST(HedgeDelayTest, TracksTheConfiguredPercentile) {
  ResiliencePolicy policy;
  policy.hedge.enabled = true;
  policy.hedge.min_samples = 3;
  policy.hedge.percentile = 0.95;
  ResilienceRegistry registry(policy);
  registry.RecordSuccess("ep", 1);
  registry.RecordSuccess("ep", 2);
  registry.RecordSuccess("ep", 100);
  // p95 over {1, 2, 100} lands on the top sample.
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 100u);
  policy.hedge.percentile = 0.5;
  ResilienceRegistry median(policy);
  median.RecordSuccess("ep", 1);
  median.RecordSuccess("ep", 2);
  median.RecordSuccess("ep", 100);
  EXPECT_EQ(median.HedgeDelayTicks("ep"), 2u);
}

TEST(HedgeDelayTest, NeverReturnsZero) {
  // A zero delay would hedge every fetch; all-zero latencies (cache-hit
  // fast sources on virtual time) and a zero default must both clamp to 1.
  ResiliencePolicy policy;
  policy.hedge.enabled = true;
  policy.hedge.min_samples = 1;
  policy.hedge.default_delay_ticks = 0;
  ResilienceRegistry registry(policy);
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 1u);
  registry.RecordSuccess("ep", 0);
  EXPECT_EQ(registry.HedgeDelayTicks("ep"), 1u);
}

// --- deadlines end to end ---------------------------------------------------

/// A one-source fixture whose only endpoint is unavailable, with a huge
/// configured backoff: if expired deadlines did not fail fast, the clock
/// would show the backoff sleeps. \p mirrored adds an α-equivalent second
/// endpoint, so the query has a plan to fail over to.
struct DeadlineFixture {
  SourceCatalog catalog;
  Mediator mediator;
  TslQuery query;

  static DeadlineFixture Make(bool mirrored = false) {
    auto db = ParseOemDatabase(R"(
      database db {
        <p1 publication { <t1 title "Views"> }>
      })");
    EXPECT_TRUE(db.ok()) << db.status();
    auto view = ParseTslQuery(
        "<d(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db",
        "Dump");
    EXPECT_TRUE(view.ok()) << view.status();
    auto query = ParseTslQuery(
        "<f(P) t yes> :- <P publication {<X Y Z>}>@db", "Q");
    EXPECT_TRUE(query.ok()) << query.status();
    Capability capability;
    capability.view = *view;
    std::vector<SourceDescription> sources{
        SourceDescription{"db", {capability}}};
    if (mirrored) {
      capability.view.name = "DumpMirror";
      sources.push_back(SourceDescription{"db", {capability}});
    }
    auto mediator = Mediator::Make(std::move(sources));
    EXPECT_TRUE(mediator.ok()) << mediator.status();
    SourceCatalog catalog;
    catalog.Put(*db);
    return DeadlineFixture{std::move(catalog), *std::move(mediator),
                           *std::move(query)};
  }
};

TEST(RetryDeadlineTest, ExpiredQueryBudgetSkipsBackoffSleeps) {
  DeadlineFixture fixture = DeadlineFixture::Make();
  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/1, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("db", dead);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 5;
  policy.retry.initial_backoff_ticks = 1000;
  policy.retry.per_query_deadline_ticks = 2;
  auto answer = fixture.mediator.Answer(fixture.query, fixture.catalog,
                                        policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->completeness, Completeness::kDegraded);
  // The clock never slept a 1000-tick backoff against a 2-tick budget.
  EXPECT_LE(clock.now(), 2u) << "backoff overshot the deadline";
}

TEST(RetryDeadlineTest, AdmissionStampedDeadlineAlreadyExpiredFailsFast) {
  DeadlineFixture fixture = DeadlineFixture::Make();
  CatalogWrapper base;
  VirtualClock clock;
  clock.Advance(50);  // the request arrives after its own deadline

  ExecutionPolicy policy;
  policy.wrapper = &base;
  policy.clock = &clock;
  policy.retry.max_attempts = 5;
  policy.retry.initial_backoff_ticks = 1000;
  policy.admission_deadline_ticks = 10;
  policy.degrade_on_deadline = false;
  auto answer = fixture.mediator.Answer(fixture.query, fixture.catalog,
                                        policy);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded()) << answer.status();
  EXPECT_EQ(clock.now(), 50u) << "an expired deadline must not sleep";
}

/// How a request runs out of budget: the admission deadline has passed
/// before the plan search (which comes back truncated and empty), or
/// before the first attempt of a cached plan list, or the second plan's
/// fetch overruns it after the first plan failed over.
enum class Exhaustion { kAtAdmission, kBeforeFirstAttempt, kMidFailover };

TEST(RetryDeadlineTest, EveryDeadlineExitDegradesOrFailsTheSameWay) {
  struct Case {
    Exhaustion how;
    bool degrade;
    const char* error_fragment;  ///< with degrade off
    uint64_t failovers;
  };
  const Case cases[] = {
      {Exhaustion::kAtAdmission, true, "", 0},
      {Exhaustion::kAtAdmission, false, "during plan search", 0},
      {Exhaustion::kBeforeFirstAttempt, true, "", 0},
      {Exhaustion::kBeforeFirstAttempt, false, "during plan failover", 0},
      {Exhaustion::kMidFailover, true, "", 1},
      {Exhaustion::kMidFailover, false, "per-call deadline", 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "exhaustion " << static_cast<int>(c.how) << ", degrade "
                 << c.degrade);
    DeadlineFixture fixture =
        DeadlineFixture::Make(c.how == Exhaustion::kMidFailover);
    CatalogWrapper base;
    VirtualClock clock;
    FaultInjector injector(&base, /*seed=*/1, &clock);
    MetricRegistry metrics;
    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.metrics = &metrics;
    policy.degrade_on_deadline = c.degrade;
    // Searched without a deadline, the plan list is not empty.
    auto plans = fixture.mediator.Plan(fixture.query);
    ASSERT_TRUE(plans.ok()) << plans.status();
    ASSERT_FALSE(plans->empty());
    if (c.how == Exhaustion::kMidFailover) {
      // Whichever mirror goes first dies at once; the other then takes 10
      // ticks against a 4-tick call limit and a 5-tick request budget.
      FaultSchedule schedule;
      schedule.scripted = {Fault::Unavailable(), Fault::SlowBy(10)};
      injector.SetSchedule("db", schedule);
      policy.retry.max_attempts = 1;
      policy.retry.per_call_deadline_ticks = 4;
      policy.retry.per_query_deadline_ticks = 5;
    } else {
      clock.Advance(50);
      policy.admission_deadline_ticks = 10;
    }
    Result<DegradedAnswer> answer =
        c.how == Exhaustion::kBeforeFirstAttempt
            ? fixture.mediator.AnswerWithPlans(fixture.query, *plans,
                                               fixture.catalog, policy)
            : fixture.mediator.Answer(fixture.query, fixture.catalog, policy);
    EXPECT_EQ(metrics.GetCounter("mediator.failovers")->value(), c.failovers);
    EXPECT_EQ(metrics.GetCounter("mediator.deadline_degraded")->value(),
              c.degrade ? 1u : 0u);
    if (!c.degrade) {
      ASSERT_FALSE(answer.ok());
      EXPECT_TRUE(answer.status().IsDeadlineExceeded()) << answer.status();
      EXPECT_NE(answer.status().ToString().find(c.error_fragment),
                std::string::npos)
          << answer.status();
      continue;
    }
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->completeness, Completeness::kDegraded);
    EXPECT_TRUE(answer->report.deadline_degraded)
        << answer->report.ToString();
    EXPECT_TRUE(answer->result.roots().empty()) << answer->result.ToString();
    EXPECT_EQ(answer->report.plan_search_truncated,
              c.how == Exhaustion::kAtAdmission)
        << answer->report.ToString();
  }
}

}  // namespace
}  // namespace tslrw
