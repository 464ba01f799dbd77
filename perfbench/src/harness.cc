#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "exec/sharded_engine.h"
#include "sql/shape.h"

namespace perfbench {

using costdb::PhysicalPlan;

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------- result checking

namespace {

// Exact cells first, doubles after, so rows pair up across runs whose sums
// differ in the last bits.
bool RowLess(const Row& a, const Row& b) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
      const Cell& x = a[c];
      const Cell& y = b[c];
      const bool dbl = x.kind == Cell::kDouble && y.kind == Cell::kDouble;
      if ((pass == 0) == dbl) continue;
      if (x.kind != y.kind) return x.kind < y.kind;
      switch (x.kind) {
        case Cell::kNull:
          break;
        case Cell::kInt:
          if (x.i != y.i) return x.i < y.i;
          break;
        case Cell::kDouble:
          if (x.d != y.d) return x.d < y.d;
          break;
        case Cell::kString:
          if (x.s != y.s) return x.s < y.s;
          break;
      }
    }
  }
  return a.size() < b.size();
}

bool CellsMatch(const Cell& x, const Cell& y) {
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case Cell::kNull:
      return true;
    case Cell::kInt:
      return x.i == y.i;
    case Cell::kString:
      return x.s == y.s;
    case Cell::kDouble: {
      const double scale = std::max({1.0, std::fabs(x.d), std::fabs(y.d)});
      return std::fabs(x.d - y.d) <= 1e-9 * scale;
    }
  }
  return false;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

}  // namespace

Canonical Canonicalize(const QueryResult& result) {
  Canonical out;
  const costdb::DataChunk& chunk = result.chunk;
  out.rows.resize(chunk.num_rows());
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const costdb::ColumnVector& col = chunk.column(c);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Cell cell;
      if (col.IsNull(r)) {
        cell.kind = Cell::kNull;
      } else {
        switch (col.physical_type()) {
          case costdb::PhysicalType::kInt64:
            cell.kind = Cell::kInt;
            cell.i = col.GetInt(r);
            break;
          case costdb::PhysicalType::kDouble:
            cell.kind = Cell::kDouble;
            cell.d = col.GetDouble(r) == 0.0 ? 0.0 : col.GetDouble(r);
            break;
          case costdb::PhysicalType::kString:
            cell.kind = Cell::kString;
            cell.s = col.GetString(r);
            break;
        }
      }
      out.rows[r].push_back(std::move(cell));
    }
  }
  std::sort(out.rows.begin(), out.rows.end(), RowLess);
  return out;
}

bool SameRows(const Canonical& a, const Canonical& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!CellsMatch(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

uint64_t Digest(const Canonical& c) {
  // Rows are re-sorted by their rendered text: the canonical order puts
  // doubles last, and rendering at 9 digits could tie rows it separated.
  std::vector<std::string> lines;
  lines.reserve(c.rows.size());
  for (const Row& row : c.rows) {
    std::string line;
    char buf[64];
    for (const Cell& cell : row) {
      switch (cell.kind) {
        case Cell::kNull:
          line += "\\N";
          break;
        case Cell::kInt:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(cell.i));
          line += buf;
          break;
        case Cell::kDouble:
          std::snprintf(buf, sizeof(buf), "%.9g", cell.d);
          line += buf;
          break;
        case Cell::kString:
          line += cell.s;
          break;
      }
      line += '\x1f';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = kFnvBasis;
  for (const std::string& line : lines) {
    h = Fnv(h, line.data(), line.size());
    h = Fnv(h, "\x1e", 1);
  }
  return h;
}

uint64_t CombineDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = kFnvBasis;
  for (uint64_t d : digests) h = Fnv(h, &d, sizeof(d));
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ResultBook::Record(const std::string& instance,
                        const QueryResult& result) {
  Canonical rows = Canonicalize(result);
  std::vector<Seen>& seen = seen_[instance];
  for (Seen& s : seen) {
    if (SameRows(s.rows, rows)) {
      ++s.ops;
      return;
    }
  }
  seen.push_back(Seen{std::move(rows), 1});
}

long ResultBook::CountMismatchedOps(
    const std::map<std::string, Canonical>& reference,
    std::vector<std::string>* reasons) const {
  long bad = 0;
  for (const auto& [instance, seen] : seen_) {
    auto it = reference.find(instance);
    for (const Seen& s : seen) {
      if (it == reference.end() || !SameRows(s.rows, it->second)) {
        bad += s.ops;
        if (reasons->size() < 8) {
          reasons->push_back("result of " + instance +
                             " differs from the reference configuration");
        }
      }
    }
  }
  return bad;
}

void ResultBook::MergeFrom(const ResultBook& other) {
  for (const auto& [instance, seen] : other.seen_) {
    std::vector<Seen>& mine = seen_[instance];
    for (const Seen& s : seen) {
      bool merged = false;
      for (Seen& m : mine) {
        if (SameRows(m.rows, s.rows)) {
          m.ops += s.ops;
          merged = true;
          break;
        }
      }
      if (!merged) mine.push_back(s);
    }
  }
}

std::string CommittedDigest(const std::string& workload, uint64_t seed) {
  std::ifstream in("perfbench/digests.json");
  if (!in) return "";
  std::stringstream text;
  text << in.rdbuf();
  const std::string needle =
      "\"" + workload + "/" + std::to_string(seed) + "\"";
  const std::string body = text.str();
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t open = body.find('"', body.find(':', at + needle.size()));
  const size_t close = body.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return body.substr(open + 1, close - open - 1);
}

// ---------------------------------------------------------- layer samples

double ScanMorsels(const PhysicalPlan* node) {
  if (node == nullptr) return 0.0;
  double n = 0.0;
  if (node->kind == PhysicalPlan::Kind::kTableScan && node->table != nullptr) {
    n += static_cast<double>(node->table->row_groups().size());
  }
  for (const auto& child : node->children) n += ScanMorsels(child.get());
  return n;
}

void LayerSamples::AddResult(const ExecutionResult& r) {
  ++queries;
  for (const auto& t : r.timings) {
    source_rows += t.source_rows;
    pipeline_s += t.seconds;
  }
  fused_morsels += static_cast<double>(r.fused.fused_filter_morsels +
                                       r.fused.fused_probe_morsels +
                                       r.fused.fused_agg_morsels);
  if (r.plan != nullptr) scan_morsels += ScanMorsels(r.plan->plan.get());
  exchange_s += r.exchange.seconds();
  link_s += r.exchange.link_seconds();
  wire_bytes += r.exchange.wire_bytes();
  egress_dollars += r.egress_dollars;
  block_hits += r.storage.hits;
  block_misses += r.storage.misses;
  block_evictions += r.storage.evictions;
  miss_s += r.storage.miss_seconds;
}

void LayerSamples::AddEstimateErrors(double est_latency, double measured_s,
                                     double est_dollars,
                                     double settled_dollars) {
  if (est_latency > 0.0 && measured_s > 0.0) {
    latency_q_error.push_back(
        std::max(est_latency / measured_s, measured_s / est_latency));
  }
  if (est_dollars > 0.0 && settled_dollars > 0.0) {
    dollar_q_error.push_back(std::max(est_dollars / settled_dollars,
                                      settled_dollars / est_dollars));
  }
}

void LayerSamples::MergeFrom(const LayerSamples& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&bind_s, o.bind_s);
  cat(&plan_miss_s, o.plan_miss_s);
  cat(&exec_s, o.exec_s);
  cat(&calibrate_s, o.calibrate_s);
  cat(&settle_s, o.settle_s);
  cat(&admit_s, o.admit_s);
  cat(&append_s, o.append_s);
  cat(&latency_q_error, o.latency_q_error);
  cat(&dollar_q_error, o.dollar_q_error);
  traced_query_s += o.traced_query_s;
  traced_exec_s += o.traced_exec_s;
  traced_cycle_s += o.traced_cycle_s;
  untraced_cycle_s += o.untraced_cycle_s;
  traced_ops += o.traced_ops;
  untraced_ops += o.untraced_ops;
  traced_settled += o.traced_settled;
  queries += o.queries;
  source_rows += o.source_rows;
  pipeline_s += o.pipeline_s;
  fused_morsels += o.fused_morsels;
  scan_morsels += o.scan_morsels;
  exchange_s += o.exchange_s;
  link_s += o.link_s;
  wire_bytes += o.wire_bytes;
  egress_dollars += o.egress_dollars;
  block_hits += o.block_hits;
  block_misses += o.block_misses;
  block_evictions += o.block_evictions;
  miss_s += o.miss_s;
}

BillSnapshot TakeBill(Database* db,
                      const std::vector<costdb::Session*>& sessions) {
  BillSnapshot b;
  for (costdb::Session* s : sessions) b.ledger_spent += s->spent();
  for (const auto& [tenant, bill] : db->tenant_billing()) {
    b.tenant_dollars += bill.dollars;
    b.tenant_get_dollars += bill.storage_get_dollars;
    b.tenant_gets += bill.storage_gets;
  }
  const Database::StorageBilling storage = db->SettleStorageRequests();
  b.storage_dollars = storage.dollars;
  b.storage_gets = storage.gets;
  b.storage_puts = storage.puts;
  const Database::EgressBilling egress = db->egress_billing();
  b.egress_dollars = egress.dollars;
  b.egress_wire_bytes = egress.wire_bytes;
  const Database::CacheStats cache = db->plan_cache_stats();
  b.plan_hits = cache.hits;
  b.plan_misses = cache.misses;
  b.plan_invalidations = cache.invalidations;
  b.calibration_version = db->calibration_version();
  return b;
}

// ------------------------------------------------------------ the report

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool RelClose(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

double PerK(double v, long queries) {
  return queries > 0 ? v * 1000.0 / static_cast<double>(queries) : 0.0;
}

double PerQuery(double v, long queries) {
  return queries > 0 ? v / static_cast<double>(queries) : 0.0;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

void Report::Config(const std::string& key, const std::string& json_value) {
  config_.push_back({key, json_value});
}

void Report::Count(const std::string& key, double value) {
  counts_.push_back({key, value});
}

void Report::Print() const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::string config = "{\"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) config += ", ";
    config += "\"" + config_[i].first + "\": " + config_[i].second;
  }
  config += "}}";
  std::printf("%s\n", config.c_str());
  std::string counts = "{\"counts\": {";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) counts += ", ";
    counts += "\"" + counts_[i].first + "\": " + JsonNumber(counts_[i].second);
  }
  counts += "}}";
  std::printf("%s\n", counts.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " +
           JsonNumber(metrics_[i].second.first) + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double RoundThroughput(const std::vector<double>& round_s,
                       size_t round_size) {
  const double m = Median(round_s);
  return m > 0.0 ? static_cast<double>(round_size) / m : 0.0;
}

double WindowThroughput(std::vector<double> done_at, double start,
                        double end) {
  std::sort(done_at.begin(), done_at.end());
  const size_t windows = static_cast<size_t>(std::max(0.0, end - start));
  std::vector<double> rates;
  size_t i = 0;
  for (size_t w = 0; w < windows; ++w) {
    // Completions per second between the window's first and last one.
    const double lo = start + static_cast<double>(w);
    while (i < done_at.size() && done_at[i] < lo) ++i;
    const size_t first = i;
    while (i < done_at.size() && done_at[i] < lo + 1.0) ++i;
    if (i - first >= 2 && done_at[i - 1] > done_at[first]) {
      rates.push_back(static_cast<double>(i - first - 1) /
                      (done_at[i - 1] - done_at[first]));
    }
  }
  return Median(rates);
}

void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const std::vector<double>& latencies_s, double elapsed_s,
                    double throughput_qps, double dollars,
                    double peak_rss_mib) {
  const long n = static_cast<long>(latencies_s.size());
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_qps", throughput_qps, "1/s");
  report->Add("latency_p50_ms", Percentile(latencies_s, 0.50) * 1e3, "ms");
  report->Add("latency_p95_ms", Percentile(latencies_s, 0.95) * 1e3, "ms");
  report->Add("dollars_per_kquery", PerK(dollars, n), "USD");
  report->Add("peak_rss_mb", peak_rss_mib, "MiB");
  report->Config("latency_samples", std::to_string(n));
  report->Config("setup_samples", std::to_string(setup_s.size()));
  report->Config("timed_seconds", JsonNumber(elapsed_s));
}

double AccountDollars(Report* report, Database* db, const BillSnapshot& begin,
                      const BillSnapshot& end, const LayerSamples& samples,
                      bool per_layer) {
  // What the facade billed per query (ledger settlements: compute, or the
  // tenant's own cold-read GET fees on top of it) ...
  const double settled =
      (end.ledger_spent - begin.ledger_spent) + samples.traced_settled;
  const double tenant = end.tenant_dollars - begin.tenant_dollars;
  const double query_gets = end.tenant_get_dollars - begin.tenant_get_dollars;
  // ... and the facade-level lines: every GET/PUT fee (which already
  // contains the tenants' GET fees, so those are taken out once) and the
  // exchange egress.
  const double storage = end.storage_dollars - begin.storage_dollars;
  const double egress = end.egress_dollars - begin.egress_dollars;
  const double dollars = settled - query_gets + storage + egress;
  const double compute = tenant - query_gets;

  if (!RelClose(settled, tenant)) {
    report->Fail("session ledgers settled " + JsonNumber(settled) +
                 " $ but tenant bills grew by " + JsonNumber(tenant) + " $");
  }
  if (!RelClose(dollars, compute + storage + egress)) {
    report->Fail("compute + storage + egress dollars do not sum to the total");
  }
  if (!RelClose(egress, samples.egress_dollars)) {
    report->Fail("egress_billing() differs from the runs' egress_dollars");
  }
  if (end.egress_wire_bytes - begin.egress_wire_bytes != samples.wire_bytes) {
    report->Fail("egress_billing() wire bytes differ from the exchanges'");
  }
  if (end.tenant_gets - begin.tenant_gets != samples.block_misses) {
    report->Fail("tenant GET counts differ from the runs' block misses");
  }
  if (const costdb::SimulatedObjectStore* store = db->storage_store()) {
    if (end.storage_gets != store->get_requests() ||
        end.storage_puts != store->put_requests()) {
      report->Fail("storage_billing() request counts differ from the store's");
    }
  }
  if (per_layer) {
    const long q = samples.queries;
    report->Add("cloud.compute_dollars_per_kquery", PerK(compute, q), "USD");
    report->Add("cloud.storage_dollars_per_kquery", PerK(storage, q), "USD");
    report->Add("cloud.egress_dollars_per_kquery", PerK(egress, q), "USD");
  }
  return dollars;
}

void ReportLayers(Report* report, const LayerSamples& s, const Trace& trace,
                  const BillSnapshot& begin, const BillSnapshot& end) {
  const long q = s.queries;
  const double ms = 1e3;
  report->Add("sql.bind_ms_p50", Median(s.bind_s) * ms, "ms");
  report->Add("optimizer.plan_ms_p50", Median(s.plan_miss_s) * ms, "ms");
  const double hits = static_cast<double>(end.plan_hits - begin.plan_hits);
  const double misses =
      static_cast<double>(end.plan_misses - begin.plan_misses);
  report->Add("optimizer.plan_cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "1");
  report->Add(
      "optimizer.invalidations_per_kquery",
      PerK(static_cast<double>(end.plan_invalidations -
                               begin.plan_invalidations),
           q),
      "count");
  report->Add("cost.calibrate_ms_p50", Median(s.calibrate_s) * ms, "ms");
  report->Add("cost.calibration_bumps_per_kquery",
              PerK(end.calibration_version - begin.calibration_version, q),
              "count");
  report->Add("cost.latency_q_error_p50", Median(s.latency_q_error), "1");
  report->Add("cost.dollar_q_error_p50", Median(s.dollar_q_error), "1");
  report->Add("service.admission_wait_ms_p50", Median(s.admit_s) * ms, "ms");
  report->Add("service.admission_wait_ms_p95", Percentile(s.admit_s, 0.95) * ms,
              "ms");
  report->Add("service.settle_ms_p50", Median(s.settle_s) * ms, "ms");
  report->Add("service.overhead_share",
              s.traced_query_s > 0.0
                  ? (s.traced_query_s - s.traced_exec_s) / s.traced_query_s
                  : 0.0,
              "1");
  report->Add("exec.execute_ms_p50", Median(s.exec_s) * ms, "ms");
  report->Add("exec.source_rows_per_s",
              s.pipeline_s > 0.0 ? s.source_rows / s.pipeline_s : 0.0,
              "rows/s");
  report->Add("exec.fused_morsel_share",
              s.scan_morsels > 0.0 ? s.fused_morsels / s.scan_morsels : 0.0,
              "1");
  report->Add("net.exchange_ms_per_query", PerQuery(s.exchange_s, q) * ms,
              "ms");
  report->Add("net.link_ms_per_query", PerQuery(s.link_s, q) * ms, "ms");
  report->Add("net.wire_bytes_per_query", PerQuery(s.wire_bytes, q), "B");
  const double blocks = static_cast<double>(s.block_hits + s.block_misses);
  report->Add("storage.block_hit_ratio",
              blocks > 0.0 ? static_cast<double>(s.block_hits) / blocks : 0.0,
              "1");
  report->Add("storage.miss_ms_per_query", PerQuery(s.miss_s, q) * ms, "ms");
  report->Add("storage.gets_per_query",
              PerQuery(static_cast<double>(s.block_misses), q), "count");
  report->Add("storage.evictions_per_query",
              PerQuery(static_cast<double>(s.block_evictions), q), "count");
  report->Add("storage.append_ms_p50", Median(s.append_s) * ms, "ms");
  report->Add("storage.puts",
              static_cast<double>(end.storage_puts - begin.storage_puts),
              "count");
  const double traced_rate =
      s.traced_cycle_s > 0.0 ? s.traced_ops / s.traced_cycle_s : 0.0;
  const double untraced_rate =
      s.untraced_cycle_s > 0.0 ? s.untraced_ops / s.untraced_cycle_s : 0.0;
  report->Add("trace.overhead_frac",
              untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
              "1");
  const TraceCheck check = trace.Check();
  if (!check.ok) report->Fail("span invariant: " + check.first_violation);
  report->Add("trace.unattributed_share",
              check.query_s > 0.0 ? check.query_self_s / check.query_s : 0.0,
              "1");
  report->Config("traced_spans", std::to_string(trace.size()));
}

void WriteTrace(const Trace& trace, const Args& args) {
  const std::string path = kWorkDir + "/traces/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!trace.WriteJsonLines(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

void ReportCommonConfig(Report* report, const Args& args,
                        const costdb::DatabaseOptions& options, double scale,
                        size_t client_threads, size_t engine_threads) {
  report->Config("workload", "\"" + args.workload + "\"");
  report->Config("seed", std::to_string(args.seed));
  report->Config("trace", args.trace ? "true" : "false");
  report->Config("commit", "\"" + args.commit + "\"");
  report->Config("src_digest", "\"" + args.src_digest + "\"");
  report->Config("nproc", std::to_string(Nproc()));
  report->Config("thread_budget", std::to_string(Nproc()));
  report->Config("client_threads", std::to_string(client_threads));
  report->Config("engine_threads_per_query", std::to_string(engine_threads));
  report->Config("scale", JsonNumber(scale));
  report->Config("calibration",
                 options.enable_calibration ? "true" : "false");
  report->Config("exec_threads", std::to_string(options.exec_threads));
}

namespace {

costdb::Result<ExecutionResult> TracedRunSql(
    Database* db, const std::string& sql,
    const costdb::UserConstraint& constraint, const std::string& tenant,
    TraceOp* op, LayerSamples* samples) {
  const double t0 = Now();
  auto bound = db->BindSql(sql);
  const double t1 = Now();
  op->Child("sql.bind", t0, t1);
  samples->bind_s.push_back(t1 - t0);
  if (!bound.ok()) return bound.status();

  bool hit = false;
  auto plan = db->PlanCachedSql(sql, constraint, &hit);
  std::string result_key;
  if (plan.ok()) {
    result_key = Database::ResultKey(costdb::NormalizeStatementShape(sql),
                                     constraint, {});
  }
  const double t2 = Now();
  op->Child("optimizer.plan", t1, t2);
  if (!hit) samples->plan_miss_s.push_back(t2 - t1);
  if (!plan.ok()) return plan.status();

  const double estimated = (*plan)->estimate.cost;
  const double est_latency = (*plan)->estimate.latency;
  auto executed = db->ExecutePlannedCached(*plan, hit, result_key,
                                           /*sink=*/nullptr,
                                           /*engine=*/nullptr, tenant);
  const double t3 = Now();
  op->Child("exec.execute", t2, t3);
  samples->exec_s.push_back(t3 - t2);
  if (!executed.ok()) return executed.status();

  db->CalibrateExecution(&*executed);
  const double t4 = Now();
  op->Child("cost.calibrate", t3, t4);
  samples->calibrate_s.push_back(t4 - t3);

  const double actual = db->SettleTenantBill(tenant, &*executed, estimated);
  const double t5 = Now();
  op->Child("service.settle", t4, t5);
  samples->settle_s.push_back(t5 - t4);
  samples->traced_settled += actual;

  samples->AddEstimateErrors(est_latency, t3 - t2, estimated, actual);
  samples->traced_exec_s += t3 - t2;
  return executed;
}

}  // namespace

costdb::Result<ExecutionResult> TracedQuery(
    Database* db, const std::string& sql,
    const costdb::UserConstraint& constraint, int64_t query_id, Trace* trace,
    LayerSamples* samples) {
  TraceOp op("query", query_id);
  auto r = TracedRunSql(db, sql, constraint, "default", &op, samples);
  op.Finish();
  trace->Commit(op);
  samples->traced_query_s += op.duration();
  return r;
}

}  // namespace perfbench
