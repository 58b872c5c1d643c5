#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t Ledger::Open(const char* name) {
  Span span;
  if (open_.empty()) {
    span.group = groups_++;
  } else {
    span.parent = open_.back();
    span.group = spans_[static_cast<size_t>(span.parent)].group;
  }
  span.name = name;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  spans_.push_back(span);
  spans_.back().start_ns = NowNs();
  return index;
}

void Ledger::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (open_.empty() || open_.back() != index) std::abort();
  open_.pop_back();
}

Ledger::Totals Ledger::Summarize() const {
  Totals totals;
  // Children are recorded after their parent and, on one thread, in start
  // order; `last_child_end` catches a child that starts before its
  // previous sibling ended.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<int64_t> last_child_end(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<size_t>(span.parent);
    const Span& p = spans_[parent];
    if (span.start_ns < p.start_ns || span.end_ns > p.end_ns ||
        span.start_ns < last_child_end[parent]) {
      totals.nested = false;
    }
    last_child_end[parent] = span.end_ns;
    child_ns[parent] += span.end_ns - span.start_ns;
  }
  // Per group: the sum of self times must telescope to the root duration.
  std::vector<int64_t> group_self(groups_, 0);
  std::vector<int32_t> group_root(groups_, -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t self = duration - child_ns[i];
    if (self < 0) totals.nested = false;
    ++totals.count[span.name];
    totals.total_ns[span.name] += duration;
    group_self[span.group] += self;
    if (span.parent < 0) group_root[span.group] = static_cast<int32_t>(i);
  }
  std::vector<bool> is_request(groups_, false);
  for (uint32_t g = 0; g < groups_; ++g) {
    const Span& root = spans_[static_cast<size_t>(group_root[g])];
    is_request[g] = std::strcmp(root.name, kRequest) == 0;
    if (!is_request[g]) continue;
    const int64_t duration = root.end_ns - root.start_ns;
    ++totals.requests;
    totals.request_ns.push_back(duration);
    const int64_t residual = group_self[g] - duration;
    totals.max_residual_ns =
        std::max(totals.max_residual_ns, residual < 0 ? -residual : residual);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!is_request[span.group]) continue;
    totals.self_ns[span.name] += (span.end_ns - span.start_ns) - child_ns[i];
  }
  return totals;
}

bool Ledger::Dump(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "group\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.group, i, s.parent,
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
