// The serving benchmark's load generator: one process per (workload,
// seed). It deploys the real QueryServer and drives it through Submit in a
// closed loop (kInFlight requests outstanding, one generator thread),
// checks every answer against the tree evaluator, and prints the
// end-to-end metrics. With --trace 1 it instead runs a shorter untraced
// window plus a traced replay of the same sequence on this thread, and
// prints the per-layer ledger. The last stdout line is the JSON result.
//
//   perfbench_loadgen --workload warm_head --seed 1 --seconds 10 --trace 0
//       [--trace-out spans.tsv]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/diff.h"
#include "common/string_util.h"
#include "common/virtual_clock.h"
#include "eval/evaluator.h"
#include "ledger.h"
#include "maint/invalidate.h"
#include "mediator/mediator.h"
#include "mediator/wrapper.h"
#include "oem/database.h"
#include "oem/generator.h"
#include "service/canonical.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using tslrw::CatalogDelta;
using tslrw::CatalogWrapper;
using tslrw::Capability;
using tslrw::DegradedAnswer;
using tslrw::ExecutionPolicy;
using tslrw::InvalidationDecider;
using tslrw::Mediator;
using tslrw::MediatorPlanSet;
using tslrw::OemDatabase;
using tslrw::PlanCache;
using tslrw::PlanCacheKey;
using tslrw::PlanCacheStats;
using tslrw::QueryServer;
using tslrw::ResilienceRegistry;
using tslrw::Result;
using tslrw::ServeResponse;
using tslrw::ServerOptions;
using tslrw::SourceCatalog;
using tslrw::Status;
using tslrw::StrCat;
using tslrw::TslQuery;
using tslrw::VirtualClock;
using tslrw::WrapperResult;
using Clock = std::chrono::steady_clock;

/// Requests outstanding in the closed loop.
constexpr size_t kInFlight = 2;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

/// The load shape's server: 2 workers, sequential plan search, every other
/// knob at its default so a change of default is measured.
ServerOptions BenchServerOptions() {
  ServerOptions options;
  options.threads = 2;
  options.rewrite_parallelism = 1;
  return options;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

/// The mean of the middle two values for an even count.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Requests attempted and failed (errors, refusals and wrong answers).
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;

  void Fail(std::string why) {
    if (failed++ == 0) first_failure = std::move(why);
  }
};

/// Every shape's answer from the tree evaluator over \p data, computed on
/// up to nproc threads before anything is timed.
Result<std::vector<OemDatabase>> EvaluateAll(
    const Workload& w, const tslrw::GeneratorOptions& data) {
  SourceCatalog catalog;
  catalog.Put(tslrw::GenerateOemDatabase("db", data));
  const size_t n = w.spellings.size();
  const size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<OemDatabase> answers(n);
  std::vector<Status> status(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) {
        auto answer = tslrw::Evaluate(w.spellings[i][0], catalog);
        if (!answer.ok()) {
          status[t] = answer.status();
          return;
        }
        answers[i] = std::move(answer).ValueOrDie();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return answers;
}

/// The oracle: each shape's answer from the tree evaluator (src/eval)
/// over the same source data, keyed by (view version, data version,
/// shape). Answers do not depend on the capability views, so both view
/// versions share one evaluation, as do equal data versions.
class References {
 public:
  static Result<References> Compute(const Workload& w) {
    References refs;
    for (int dv = 0; dv < 2; ++dv) {
      if (dv == 1 && w.data[1].seed == w.data[0].seed) {
        refs.by_data_[1] = refs.by_data_[0];
        break;
      }
      auto answers = EvaluateAll(w, w.data[dv]);
      if (!answers.ok()) return answers.status();
      refs.by_data_[dv] = std::make_shared<const std::vector<OemDatabase>>(
          std::move(answers).ValueOrDie());
    }
    for (uint32_t shape = 0; shape < w.spellings.size(); ++shape) {
      for (int vv = 0; vv < 2; ++vv) {
        for (int dv = 0; dv < 2; ++dv) {
          refs.answers_[Key(vv, dv, shape)] = &(*refs.by_data_[dv])[shape];
        }
      }
      refs.non_empty_ += !(*refs.by_data_[0])[shape].roots().empty();
    }
    refs.shapes_ = w.spellings.size();
    return refs;
  }

  const OemDatabase* Get(int view_version, int data_version,
                         uint32_t shape) const {
    auto it = answers_.find(Key(view_version, data_version, shape));
    return it == answers_.end() ? nullptr : it->second;
  }

  double NonEmptyShare() const {
    return Ratio(static_cast<double>(non_empty_),
                 static_cast<double>(shapes_));
  }

 private:
  static uint64_t Key(int vv, int dv, uint32_t shape) {
    return (static_cast<uint64_t>(vv) << 40) |
           (static_cast<uint64_t>(dv) << 32) | shape;
  }

  std::shared_ptr<const std::vector<OemDatabase>> by_data_[2];
  std::map<uint64_t, const OemDatabase*> answers_;
  size_t non_empty_ = 0;
  size_t shapes_ = 0;
};

/// Bit of a (view version, data version) pair in an acceptance mask.
uint32_t VersionBit(int vv, int dv) { return 1u << (vv * 2 + dv); }

/// Checks one answer against every version the request may have seen.
bool CheckAnswer(const Result<DegradedAnswer>& answer, const Workload& w,
                 const References& refs, uint32_t shape, uint32_t mask,
                 Tally* tally) {
  const std::string& text = w.texts[shape][0];
  if (!answer.ok()) {
    tally->Fail(StrCat("error on ", text, ": ", answer.status().ToString()));
    return false;
  }
  if (!answer->complete()) {
    tally->Fail(StrCat("incomplete answer on ", text));
    return false;
  }
  for (int vv = 0; vv < 2; ++vv) {
    for (int dv = 0; dv < 2; ++dv) {
      if ((mask & VersionBit(vv, dv)) == 0) continue;
      const OemDatabase* ref = refs.Get(vv, dv, shape);
      if (ref != nullptr && answer->result.Equals(*ref)) return true;
    }
  }
  tally->Fail(StrCat("wrong answer on ", text));
  return false;
}

/// The system under test: the server plus the two catalog versions that
/// publishes toggle between.
struct Deployment {
  OemDatabase data[2];
  std::optional<Mediator> mediators[2];
  std::unique_ptr<QueryServer> server;
  int view_version = 0;
  int data_version = 0;
};

Status MakeMediator(const Workload& w, int version,
                    std::optional<Mediator>* out) {
  auto mediator = Mediator::Make(w.views[version]);
  if (!mediator.ok()) return mediator.status();
  out->emplace(std::move(mediator).ValueOrDie());
  return Status::OK();
}

/// What one closed-loop window measured.
/// Equal slices of wall time in a timed window. The end-to-end rates and
/// quantiles are medians over the slices, so a slow-down of the shared
/// host within one slice moves none of them.
constexpr size_t kSlices = 4;

/// What one slice of a timed window measured.
struct Slice {
  size_t completed = 0;
  std::vector<double> latency_us;
  double wall_s = 0;
  double cpu_s = 0;
};

struct Window {
  std::vector<double> latency_us;
  /// kSlices slices when the window is timed; none for a warm-up.
  std::vector<Slice> slices;
  std::vector<double> publish_view_us;
  std::vector<double> publish_data_us;
  PlanCacheStats cache_before;
  PlanCacheStats cache_after;
};

/// One request in flight.
struct Outstanding {
  Request request;
  uint32_t accept = 0;
  Clock::time_point submitted;
};

/// Waits on the closed loop's futures so that the generator sleeps instead
/// of polling: one thread per slot blocks on its slot's future and stamps
/// the time it became ready. The waiters are blocked while the server's
/// workers run, so they add no runnable thread.
class Waiters {
 public:
  using Future = std::future<Result<ServeResponse>>;

  /// A ready slot: when its future became ready, and its result.
  struct Done {
    size_t slot;
    Clock::time_point at;
    Result<ServeResponse> response;
  };

  explicit Waiters(size_t slots) : slots_(slots) {
    for (size_t i = 0; i < slots; ++i) {
      threads_.emplace_back([this, i] { Wait(i); });
    }
  }

  ~Waiters() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    armed_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Hands \p future to the idle waiter of slot \p i.
  void Arm(size_t i, Future future) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[i].future = std::move(future);
      slots_[i].armed = true;
    }
    armed_.notify_all();
  }

  /// Blocks until an armed slot's future is ready. The slot is idle again.
  Done Next() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] { return !ready_.empty(); });
    const auto [slot, at] = ready_.front();
    ready_.pop_front();
    Future future = std::move(slots_[slot].future);
    lock.unlock();
    return Done{slot, at, future.get()};
  }

 private:
  struct Slot {
    Future future;
    bool armed = false;
  };

  void Wait(size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      armed_.wait(lock, [&] { return stop_ || slots_[i].armed; });
      if (stop_) return;
      slots_[i].armed = false;
      // Nothing else touches an armed slot until it is reported ready.
      const Future& future = slots_[i].future;
      lock.unlock();
      future.wait();
      const auto at = Clock::now();
      lock.lock();
      ready_.emplace_back(i, at);
      ready_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable armed_;
  std::condition_variable ready_cv_;
  std::vector<Slot> slots_;
  std::deque<std::pair<size_t, Clock::time_point>> ready_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Publishes \p kind to the server and widens the acceptance mask of every
/// request in flight, which may be served by either snapshot.
void ApplyPublish(Publish kind, Deployment* d, Window* window,
                  std::vector<std::optional<Outstanding>>* slots) {
  if (kind == Publish::kNone) return;
  if (kind == Publish::kViewEdit) {
    const int next = 1 - d->view_version;
    Mediator mediator = *d->mediators[next];
    const auto start = Clock::now();
    d->server->ReplaceMediator(std::move(mediator));
    window->publish_view_us.push_back(Micros(Clock::now() - start));
    d->view_version = next;
  } else {
    const int next = 1 - d->data_version;
    OemDatabase db = d->data[next];
    const auto start = Clock::now();
    d->server->UpdateCatalog(std::move(db));
    window->publish_data_us.push_back(Micros(Clock::now() - start));
    d->data_version = next;
  }
  for (std::optional<Outstanding>& o : *slots) {
    if (o.has_value()) {
      o->accept |= VersionBit(d->view_version, d->data_version);
    }
  }
}

/// Drives \p sequence through Submit with kInFlight requests outstanding
/// until \p max_requests were sent (0 = no limit) or \p seconds passed
/// (0 = no limit), checking every answer. Publishes follow the workload's
/// cadence when \p publishes is set (the timed window; not the warm-up).
Window RunClosedLoop(const Workload& w, const References& refs,
                     const std::vector<Request>& sequence,
                     size_t max_requests, double seconds, bool publishes,
                     Deployment* d, Tally* tally) {
  Window window;
  Waiters waiters(kInFlight);
  std::vector<std::optional<Outstanding>> slots(kInFlight);
  size_t in_flight = 0;
  size_t next = 0;
  bool stop = false;
  window.cache_before = d->server->stats().plan_cache;
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now();
  auto after = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  const auto deadline = after(seconds);
  // Fills idle slot i with the next request, unless the window is over.
  auto submit = [&](size_t i) {
    while (!stop) {
      if ((max_requests != 0 && next >= max_requests) ||
          (seconds > 0 && Clock::now() >= deadline)) {
        stop = true;
        return;
      }
      if (publishes) ApplyPublish(w.PublishBefore(next), d, &window, &slots);
      Outstanding o;
      o.request = sequence[next % sequence.size()];
      ++next;
      o.accept = VersionBit(d->view_version, d->data_version);
      o.submitted = Clock::now();
      ++tally->attempted;
      auto submitted =
          d->server->Submit(w.spellings[o.request.shape][o.request.spelling]);
      if (!submitted.ok()) {
        tally->Fail(StrCat("refused: ", submitted.status().ToString()));
        continue;
      }
      slots[i] = o;
      ++in_flight;
      waiters.Arm(i, std::move(submitted).value());
      return;
    }
  };
  // The current slice, closed by the first completion past its end.
  size_t slice = 0;
  auto slice_start = start;
  double slice_cpu = cpu_start;
  auto close_slice = [&](Clock::time_point now) {
    const double cpu = CpuSeconds();
    window.slices[slice].wall_s = Seconds(now - slice_start);
    window.slices[slice].cpu_s = cpu - slice_cpu;
    slice_start = now;
    slice_cpu = cpu;
  };
  if (seconds > 0) window.slices.resize(kSlices);
  for (size_t i = 0; i < kInFlight; ++i) submit(i);
  while (in_flight > 0) {
    Waiters::Done done = waiters.Next();
    const Outstanding o = *slots[done.slot];
    slots[done.slot].reset();
    --in_flight;
    // The next request goes out before this answer is checked, so the
    // server's workers do not wait on the check.
    submit(done.slot);
    Result<DegradedAnswer> answer =
        done.response.ok()
            ? Result<DegradedAnswer>(std::move(done.response->answer))
            : Result<DegradedAnswer>(done.response.status());
    while (!window.slices.empty() && slice + 1 < kSlices &&
           done.at >= after(seconds * static_cast<double>(slice + 1) /
                            static_cast<double>(kSlices))) {
      close_slice(done.at);
      ++slice;
    }
    if (CheckAnswer(answer, w, refs, o.request.shape, o.accept, tally)) {
      const double latency_us = Micros(done.at - o.submitted);
      window.latency_us.push_back(latency_us);
      if (!window.slices.empty()) {
        ++window.slices[slice].completed;
        window.slices[slice].latency_us.push_back(latency_us);
      }
    }
  }
  if (!window.slices.empty()) close_slice(Clock::now());
  window.cache_after = d->server->stats().plan_cache;
  return window;
}

/// Set-up as a user pays it: generate the source data and Mediator::Make
/// both catalog versions, construct the server, and warm its caches with
/// the warm-up requests.
Result<std::unique_ptr<Deployment>> SetUp(const Workload& w,
                                          const References& refs,
                                          Tally* tally) {
  auto d = std::make_unique<Deployment>();
  for (int v = 0; v < 2; ++v) {
    d->data[v] = tslrw::GenerateOemDatabase("db", w.data[v]);
    Status made = MakeMediator(w, v, &d->mediators[v]);
    if (!made.ok()) return made;
  }
  SourceCatalog catalog;
  catalog.Put(d->data[0]);
  d->server = std::make_unique<QueryServer>(
      *d->mediators[0], std::move(catalog), BenchServerOptions());
  RunClosedLoop(w, refs, w.warmup, w.warmup.size(), 0, false, d.get(),
                tally);
  return d;
}

// ---------------------------------------------------------------------------
// The traced run.

/// Counts of the traced window's layer work.
struct LayerCounts {
  size_t fetches = 0;
  size_t fetched_objects = 0;
  size_t answer_objects = 0;
  size_t searches = 0;
  size_t candidates = 0;
  size_t candidates_tested = 0;
  size_t equiv_hits = 0;
  size_t replans = 0;
  size_t view_publishes = 0;
  size_t examined = 0;
  size_t retained = 0;
};

/// Times each source fetch of an execution (ExecutionPolicy::wrapper).
class TimedWrapper : public tslrw::Wrapper {
 public:
  TimedWrapper(Ledger* ledger, LayerCounts* counts)
      : ledger_(ledger), counts_(counts) {}

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    Ledger::Scope span(ledger_, "mediator.fetch");
    Result<WrapperResult> result = base_.Fetch(capability, catalog);
    if (ledger_ != nullptr) {
      ++counts_->fetches;
      if (result.ok()) counts_->fetched_objects += result->data.size();
    }
    return result;
  }

 private:
  Ledger* ledger_;
  LayerCounts* counts_;
  CatalogWrapper base_;
};

/// The request path composed from the layers' public calls, in the order
/// QueryServer::Answer makes them, over a plan cache of the server's
/// default shape. Counts and spans are recorded only when a ledger is
/// passed (the warm-up passes none).
class TracedPath {
 public:
  static Result<std::unique_ptr<TracedPath>> Make(const Workload& w) {
    auto path = std::unique_ptr<TracedPath>(new TracedPath());
    for (int v = 0; v < 2; ++v) {
      Status made = MakeMediator(w, v, &path->mediators_[v]);
      if (!made.ok()) return made;
      path->catalogs_[v].Put(tslrw::GenerateOemDatabase("db", w.data[v]));
    }
    return path;
  }

  Result<DegradedAnswer> Answer(const TslQuery& query, Ledger* ledger) {
    Ledger::Scope request(ledger, Ledger::kRequest);
    VirtualClock clock;
    const Mediator& mediator = *mediators_[view_version_];
    PlanCacheKey key = [&] {
      Ledger::Scope span(ledger, "tsl.canonicalize");
      return tslrw::MakePlanCacheKey(query);
    }();
    bool computed = false;
    Result<PlanCache::PlanSetPtr> plans = [&] {
      Ledger::Scope span(ledger, "service.lookup");
      return cache_.LookupOrCompute(
          key, generation_, [&]() -> Result<MediatorPlanSet> {
            computed = true;
            Ledger::Scope search(ledger, "rewrite.plan_search");
            return mediator.Plan(key.canonical, options_.rewrite_parallelism,
                                 nullptr, nullptr, &clock, 0);
          });
    }();
    if (!plans.ok()) return plans.status();
    if (ledger != nullptr && computed) {
      const tslrw::PlanSearchStats& search = (*plans)->search;
      ++counts_.searches;
      counts_.candidates += search.candidates_generated;
      counts_.candidates_tested += search.candidates_tested;
      counts_.equiv_hits += search.equiv_cache_hits;
      counts_.replans += invalidated_.erase(key.key);
    }
    TimedWrapper wrapper(ledger, &counts_);
    ExecutionPolicy policy;
    policy.wrapper = &wrapper;
    policy.retry = options_.retry;
    policy.allow_degraded = options_.allow_degraded;
    policy.strict = options_.strict;
    policy.rewrite_parallelism = options_.rewrite_parallelism;
    policy.clock = &clock;
    policy.resilience = &resilience_;
    Ledger::Scope execute(ledger, "mediator.answer");
    Result<DegradedAnswer> answer = mediator.AnswerWithPlans(
        query, **plans, catalogs_[data_version_], policy);
    if (ledger != nullptr && answer.ok()) {
      counts_.answer_objects += answer->result.size();
    }
    return answer;
  }

  /// A single-view edit to the other catalog version, maintained the way
  /// the server does: diff, decide per entry, fence with a new generation.
  void PublishView(Ledger* ledger) {
    const Mediator& from = *mediators_[view_version_];
    const Mediator& to = *mediators_[1 - view_version_];
    Ledger::Scope publish(ledger, "publish.view");
    const CatalogDelta delta = [&] {
      Ledger::Scope span(ledger, "catalog.diff");
      return tslrw::ComputeCatalogDelta(from.sources(), from.constraints(),
                                        to.sources(), to.constraints());
    }();
    const size_t examined = cache_.size();
    size_t dropped = 0;
    {
      Ledger::Scope span(ledger, "maint.invalidate");
      const InvalidationDecider decider(delta, to.sources(),
                                        to.constraints());
      if (decider.full_flush()) {
        dropped = examined;
        cache_.Flush();
      } else if (!decider.no_op()) {
        cache_.BeginGeneration();
        dropped = cache_.InvalidateMatching(
            [&](const std::string& key, const MediatorPlanSet& plans) {
              const bool drop = decider.ShouldInvalidate(plans.footprint);
              if (drop) invalidated_.insert(key);
              return drop;
            });
      }
    }
    generation_ = cache_.generation();
    view_version_ = 1 - view_version_;
    if (ledger != nullptr) {
      ++counts_.view_publishes;
      counts_.examined += examined;
      counts_.retained += examined - dropped;
    }
  }

  void PublishData() { data_version_ = 1 - data_version_; }

  int view_version() const { return view_version_; }
  int data_version() const { return data_version_; }
  const LayerCounts& counts() const { return counts_; }
  PlanCacheStats cache_stats() const { return cache_.stats(); }

 private:
  TracedPath()
      : cache_(PlanCache::Options{options_.plan_cache_capacity,
                                  options_.plan_cache_shards}),
        resilience_(options_.resilience) {}

  const ServerOptions options_ = BenchServerOptions();
  PlanCache cache_;
  ResilienceRegistry resilience_;
  std::optional<Mediator> mediators_[2];
  SourceCatalog catalogs_[2];
  uint64_t generation_ = 0;
  int view_version_ = 0;
  int data_version_ = 0;
  std::set<std::string> invalidated_;
  LayerCounts counts_;
};

/// Replays the workload's sequence (and publish cadence) through the
/// traced path for \p seconds after an untraced warm-up.
struct Traced {
  Ledger ledger;
  LayerCounts counts;
  PlanCacheStats cache_before;
  PlanCacheStats cache_after;
};

Result<Traced> RunTraced(const Workload& w, const References& refs,
                         double seconds, Tally* tally) {
  auto made = TracedPath::Make(w);
  if (!made.ok()) return made.status();
  TracedPath& path = **made;
  auto serve = [&](const Request& r, Ledger* ledger) {
    ++tally->attempted;
    Result<DegradedAnswer> answer =
        path.Answer(w.spellings[r.shape][r.spelling], ledger);
    CheckAnswer(answer, w, refs, r.shape,
                VersionBit(path.view_version(), path.data_version()), tally);
  };
  for (const Request& r : w.warmup) serve(r, nullptr);
  Traced traced;
  traced.cache_before = path.cache_stats();
  const auto start = Clock::now();
  for (size_t i = 0; Seconds(Clock::now() - start) < seconds; ++i) {
    switch (w.PublishBefore(i)) {
      case Publish::kViewEdit:
        path.PublishView(&traced.ledger);
        break;
      case Publish::kDataUpdate:
        path.PublishData();
        break;
      case Publish::kNone:
        break;
    }
    serve(w.sequence[i % w.sequence.size()], &traced.ledger);
  }
  traced.cache_after = path.cache_stats();
  traced.counts = path.counts();
  return traced;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out =
      StrCat("{\"correct\": ", correct ? "true" : "false",
             ", \"attempted\": ", tally.attempted,
             ", \"failed\": ", tally.failed, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += StrCat(i == 0 ? "" : ", ", "\"", metrics[i].name,
                  "\": {\"value\": ", value, ", \"unit\": \"",
                  metrics[i].unit, "\"}");
  }
  return out + "}}";
}

double HitRatio(const PlanCacheStats& before, const PlanCacheStats& after) {
  const double hits =
      static_cast<double>((after.hits - before.hits) +
                          (after.coalesced - before.coalesced));
  const double misses = static_cast<double>(after.misses - before.misses);
  return Ratio(hits, hits + misses);
}

void PrintProperties(const Workload& w, const References& refs) {
  const ServerOptions options = BenchServerOptions();
  std::printf("workload %s seed %llu digest %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed),
              static_cast<unsigned long long>(w.Digest()));
  std::printf("  distinct canonical shapes: %zu (%zu spellings each)\n",
              w.spellings.size(), w.spellings[0].size());
  std::printf("  alpha-renamed share: %.4f\n", w.AlphaRenamedShare());
  std::printf("  working set / plan_cache_capacity: %zu / %zu = %.4f\n",
              w.spellings.size(), options.plan_cache_capacity,
              Ratio(static_cast<double>(w.spellings.size()),
                    static_cast<double>(options.plan_cache_capacity)));
  std::printf("  source roots: %d; non-empty reference answers: %.4f\n",
              w.data[0].num_roots, refs.NonEmptyShare());
  std::printf(
      "  publish cadence: view edit of %s every %zu requests, data update "
      "every %zu requests (offset %zu); data versions %s\n",
      w.edited_view.c_str(), 2 * kPublishEvery, 2 * kPublishEvery,
      kPublishEvery, w.data[0].seed == w.data[1].seed ? "equal" : "differ");
  std::printf("  edited view consulted by %.4f of shapes\n",
              w.edited_view_share);
  std::printf(
      "  thread budget: 1 generator + %zu server workers, "
      "rewrite_parallelism %zu, %zu requests in flight (nproc %u)\n",
      options.threads, options.rewrite_parallelism, kInFlight,
      std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

int Fatal(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const auto begin = Clock::now();
  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) return Fatal(made.status());
  const Workload& w = *made;
  const auto generated = Clock::now();
  auto computed = References::Compute(w);
  if (!computed.ok()) return Fatal(computed.status());
  const References& refs = *computed;
  PrintProperties(w, refs);
  std::printf("  inputs generated in %.3f s, reference answers in %.3f s\n",
              Seconds(generated - begin), Seconds(Clock::now() - generated));

  Tally tally;
  std::vector<Metric> metrics;
  bool correct = true;
  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetups; ++i) {
      d.reset();
      const auto start = Clock::now();
      auto deployed = SetUp(w, refs, &tally);
      if (!deployed.ok()) return Fatal(deployed.status());
      setup_s.push_back(Seconds(Clock::now() - start));
      d = std::move(deployed).ValueOrDie();
    }
    Window window = RunClosedLoop(w, refs, w.sequence, 0, args.seconds,
                                  true, d.get(), &tally);
    std::printf("  measured plan-cache hit ratio: %.4f\n",
                HitRatio(window.cache_before, window.cache_after));
    // Each end-to-end rate and quantile is the median of its per-slice
    // values. p99 is printed, not reported: a busy host moves it by up to
    // half between runs of the same code, far past any bound.
    std::vector<double> rps, p50, p90, p99, cpu_us;
    size_t beyond_p99 = window.latency_us.size();
    std::string counts;
    for (const Slice& s : window.slices) {
      const size_t n = s.latency_us.size();
      beyond_p99 = std::min(
          beyond_p99,
          n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))));
      counts += StrCat(counts.empty() ? "" : " ", n);
      const double completed = static_cast<double>(s.completed);
      rps.push_back(Ratio(completed, s.wall_s));
      p50.push_back(Quantile(s.latency_us, 0.50));
      p90.push_back(Quantile(s.latency_us, 0.90));
      p99.push_back(Quantile(s.latency_us, 0.99));
      cpu_us.push_back(Ratio(s.cpu_s * 1e6, completed));
    }
    std::printf("  latency samples: %zu in %zu slices (%s; at least %zu "
                "beyond p99 in each); publishes: %zu view, %zu data\n",
                window.latency_us.size(), window.slices.size(),
                counts.c_str(), beyond_p99, window.publish_view_us.size(),
                window.publish_data_us.size());
    std::printf("  latency p99 (median over slices, unbounded): %.3f us\n",
                Median(p99));
    metrics = {
        {"throughput_rps", Median(rps), "1/s"},
        {"latency_p50_us", Median(p50), "us"},
        {"latency_p90_us", Median(p90), "us"},
        {"cpu_us_per_req", Median(cpu_us), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"publish_view_p50_us", Median(window.publish_view_us),
         "us"},
        {"publish_data_p50_us", Median(window.publish_data_us),
         "us"},
        {"setup_s", Median(setup_s), "s"},
    };
    if (beyond_p99 < 10) {
      std::printf("  warning: a slice has fewer than 10 samples beyond "
                  "p99\n");
    }
  } else {
    auto deployed = SetUp(w, refs, &tally);
    if (!deployed.ok()) return Fatal(deployed.status());
    Window window = RunClosedLoop(w, refs, w.sequence, 0, args.seconds / 2,
                                  true, deployed->get(), &tally);
    deployed->reset();
    const double untraced_p50 = Quantile(window.latency_us, 0.5);
    auto traced = RunTraced(w, refs, args.seconds / 2, &tally);
    if (!traced.ok()) return Fatal(traced.status());
    const Ledger::Totals t = traced->ledger.Summarize();
    const LayerCounts& c = traced->counts;
    const double requests = static_cast<double>(t.requests);
    double request_ns = 0;
    for (int64_t ns : t.request_ns) request_ns += static_cast<double>(ns);
    auto self_us = [&](const char* name) {
      auto it = t.self_ns.find(name);
      return it == t.self_ns.end()
                 ? 0.0
                 : Ratio(static_cast<double>(it->second) / 1e3, requests);
    };
    auto mean_us = [&](const char* name) {
      auto total = t.total_ns.find(name);
      auto count = t.count.find(name);
      return total == t.total_ns.end()
                 ? 0.0
                 : Ratio(static_cast<double>(total->second) / 1e3,
                         static_cast<double>(count->second));
    };
    std::vector<double> request_us;
    for (int64_t ns : t.request_ns) {
      request_us.push_back(static_cast<double>(ns) / 1e3);
    }
    const double layers_us =
        self_us("tsl.canonicalize") + self_us("service.lookup") +
        self_us("rewrite.plan_search") + self_us("mediator.fetch") +
        self_us("mediator.answer") + self_us(Ledger::kRequest);
    // The layers must add up to the traced request time: every span nested
    // in its parent, and per request the self times sum to the root's
    // duration. Slack: 1 us per request.
    const bool ledger_ok = t.nested && t.max_residual_ns <= 1000;
    std::printf("  traced requests: %zu; ledger %s (max residual %lld ns, "
                "layers %.3f us vs request %.3f us)\n",
                t.requests, ledger_ok ? "sums" : "DOES NOT SUM",
                static_cast<long long>(t.max_residual_ns), layers_us,
                Ratio(request_ns / 1e3, requests));
    const double lookups = static_cast<double>(
        (traced->cache_after.hits - traced->cache_before.hits) +
        (traced->cache_after.misses - traced->cache_before.misses) +
        (traced->cache_after.coalesced - traced->cache_before.coalesced));
    const double evictions = static_cast<double>(
        traced->cache_after.evictions - traced->cache_before.evictions);
    metrics = {
        {"trace.request_us", Ratio(request_ns / 1e3, requests), "us"},
        {"tsl.canonicalize_us", self_us("tsl.canonicalize"), "us"},
        {"service.lookup_us", self_us("service.lookup"), "us"},
        {"rewrite.plan_search_us", self_us("rewrite.plan_search"), "us"},
        {"mediator.fetch_us", self_us("mediator.fetch"), "us"},
        {"mediator.exec_us", self_us("mediator.answer"), "us"},
        {"mediator.fetches_per_req",
         Ratio(static_cast<double>(c.fetches), requests), "count"},
        {"mediator.fetched_objects_per_req",
         Ratio(static_cast<double>(c.fetched_objects), requests), "count"},
        {"oem.answer_objects_per_req",
         Ratio(static_cast<double>(c.answer_objects), requests), "count"},
        {"rewrite.searches_per_req",
         Ratio(static_cast<double>(c.searches), requests), "count"},
        {"rewrite.candidates_per_search",
         Ratio(static_cast<double>(c.candidates),
               static_cast<double>(c.searches)),
         "count"},
        {"equiv.memo_hit_ratio",
         Ratio(static_cast<double>(c.equiv_hits),
               static_cast<double>(c.candidates_tested)),
         "ratio"},
        {"service.hit_ratio",
         HitRatio(traced->cache_before, traced->cache_after), "ratio"},
        {"service.evictions_per_kreq", Ratio(evictions * 1e3, lookups),
         "count"},
        {"catalog.diff_us", mean_us("catalog.diff"), "us"},
        {"maint.invalidate_us", mean_us("maint.invalidate"), "us"},
        {"maint.retained_ratio",
         Ratio(static_cast<double>(c.retained),
               static_cast<double>(c.examined)),
         "ratio"},
        {"maint.replans_per_publish",
         Ratio(static_cast<double>(c.replans),
               static_cast<double>(c.view_publishes)),
         "count"},
        {"ledger.unaccounted_share",
         Ratio(static_cast<double>(t.self_ns.count(Ledger::kRequest)
                                       ? t.self_ns.at(Ledger::kRequest)
                                       : 0),
               request_ns),
         "ratio"},
        {"trace.overhead_ratio",
         Ratio(Quantile(request_us, 0.5), untraced_p50), "ratio"},
    };
    if (!args.trace_out.empty() && !traced->ledger.Dump(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
    correct = ledger_ok && t.requests > 0;
  }
  if (tally.failed != 0) {
    correct = false;
    std::printf("  %zu of %zu requests failed; first: %s\n", tally.failed,
                tally.attempted, tally.first_failure.c_str());
  }
  std::printf("%s\n", Json(correct, tally, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
