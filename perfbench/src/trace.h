#pragma once

// Spans recorded around the calls the benchmark makes into each layer's
// public functions. Kept in memory, checked, and written out when the run
// ends. Spans inside the program itself are not recorded here.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds on perfbench::Now()'s clock
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t query = 0;   // the operation the span belongs to
};

/// The spans of one operation: a root span and its direct children. Built
/// by one client (the admission worker fills the children of a submitted
/// query, handing the op back through the admission controller's lock),
/// then committed to the Trace in one step.
class TraceOp {
 public:
  /// Opens the root span now.
  TraceOp(const char* root_name, int64_t query_id);
  /// A root span that has already run from `start` to `end`.
  static TraceOp Closed(const char* root_name, int64_t query_id, double start,
                        double end);

  /// Adds a finished child span of the root.
  void Child(const char* name, double start, double end);
  /// Closes the root span now.
  void Finish();

  const std::vector<Span>& spans() const { return spans_; }
  double duration() const { return spans_[0].end - spans_[0].start; }

 private:
  std::vector<Span> spans_;
};

/// Summary of the span invariants over a whole run.
struct TraceCheck {
  bool ok = true;
  std::string first_violation;
  double query_s = 0.0;         // summed `query` root durations
  double query_self_s = 0.0;    // their self time: no child span covers it
};

class Trace {
 public:
  void Commit(const TraceOp& op);

  /// Checks that every span's children lie inside it, do not overlap and
  /// so sum to no more than its duration, and that each `query` root's
  /// children plus its self time equal its duration.
  TraceCheck Check() const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
