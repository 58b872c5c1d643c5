// In-memory span recorder for the traced run. Spans are opened and closed
// around calls into each layer's public functions (one thread only), kept
// in memory, and written out when the run ends. A span's self time is its
// duration minus the time its child spans cover.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  /// The root span name of one traced request.
  static constexpr const char* kRequest = "request";

  struct Span {
    uint32_t group = 0;  ///< spans opened under one root share a group
    int32_t parent = -1;
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Opens/closes a span around a scope; a null ledger records nothing.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name)
        : ledger_(ledger), index_(ledger ? ledger->Open(name) : -1) {}
    ~Scope() {
      if (ledger_ != nullptr) ledger_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int32_t index_;
  };

  /// What the spans add up to.
  struct Totals {
    size_t requests = 0;
    /// Root durations of the traced requests.
    std::vector<int64_t> request_ns;
    /// Self time per span name, summed over requests (the request root's
    /// self time is the unaccounted time).
    std::map<std::string, int64_t> self_ns;
    /// Span count per name, over every span (request or not).
    std::map<std::string, size_t> count;
    /// Total duration per name, over every span.
    std::map<std::string, int64_t> total_ns;
    /// Largest |sum of self times - root duration| over requests, and
    /// whether every child lay inside its parent without overlapping a
    /// sibling (the condition under which self times are real).
    int64_t max_residual_ns = 0;
    bool nested = true;
  };

  Totals Summarize() const;

  /// Writes one tab-separated line per span (group, id, parent, name,
  /// start, end in ns from the first span). Returns false on I/O error.
  bool Dump(const std::string& path) const;

 private:
  int32_t Open(const char* name);
  void Close(int32_t index);

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t groups_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
