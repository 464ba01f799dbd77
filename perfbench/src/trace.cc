#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "harness.h"

namespace perfbench {

namespace {

std::atomic<int64_t> next_span_id{1};

}  // namespace

TraceOp::TraceOp(const char* root_name, int64_t query_id) {
  Span root;
  root.name = root_name;
  root.start = Now();
  root.end = root.start;
  root.id = next_span_id.fetch_add(1);
  root.query = query_id;
  spans_.push_back(root);
}

TraceOp TraceOp::Closed(const char* root_name, int64_t query_id,
                        double start, double end) {
  TraceOp op(root_name, query_id);
  op.spans_[0].start = start;
  op.spans_[0].end = end;
  return op;
}

void TraceOp::Child(const char* name, double start, double end) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = next_span_id.fetch_add(1);
  s.parent = spans_[0].id;
  s.query = spans_[0].query;
  spans_.push_back(s);
}

void TraceOp::Finish() { spans_[0].end = Now(); }

void Trace::Commit(const TraceOp& op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), op.spans().begin(), op.spans().end());
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

TraceCheck Trace::Check() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceCheck check;
  std::map<int64_t, const Span*> by_id;
  std::map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  auto violate = [&](const Span& s, const char* what) {
    if (check.ok) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "span %s (query %lld): %s", s.name,
                    static_cast<long long>(s.query), what);
      check.first_violation = buf;
    }
    check.ok = false;
  };
  for (const Span& s : spans_) {
    if (s.end < s.start) violate(s, "ends before it starts");
    if (s.parent != 0 && by_id.count(s.parent) == 0) {
      violate(s, "parent missing");
    }
    auto it = children.find(s.id);
    double covered = 0.0;
    if (it != children.end()) {
      std::vector<const Span*> kids = it->second;
      std::sort(kids.begin(), kids.end(),
                [](const Span* a, const Span* b) { return a->start < b->start; });
      double sum = 0.0;
      double prev_end = s.start;
      for (const Span* k : kids) {
        if (k->start < s.start || k->end > s.end) {
          violate(*k, "lies outside its parent");
        }
        if (k->start < prev_end) violate(*k, "overlaps a sibling");
        prev_end = std::max(prev_end, k->end);
        sum += k->end - k->start;
      }
      if (sum > s.end - s.start) violate(s, "children sum past its duration");
      covered = sum;
    }
    if (s.parent == 0 && std::strcmp(s.name, "query") == 0) {
      const double self = (s.end - s.start) - covered;
      // Parts plus self time must account for the whole latency; with
      // disjoint children inside the parent this holds to rounding.
      if (self < 0.0 ||
          std::fabs(covered + self - (s.end - s.start)) > 1e-9) {
        violate(s, "parts and self time do not add up to its latency");
      }
      check.query_s += s.end - s.start;
      check.query_self_s += self;
    }
  }
  return check;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%lld,"
                 "\"parent\":%lld,\"query\":%lld}\n",
                 s.name, s.start, s.end, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
