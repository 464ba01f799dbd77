#pragma once

// Shared plumbing of the benchmark program: run arguments, clocks, summary
// statistics, order-insensitive result comparison, per-layer sample
// accumulation and the JSON report. Everything here sits outside the
// program under test and reaches it only through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/session.h"
#include "trace.h"

namespace perfbench {

using costdb::Database;
using costdb::ExecutionResult;
using costdb::QueryResult;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// > 0: run exactly this many operations instead of a timed window (the
  /// exact-repeat study of README.md); the end-to-end figures still print.
  long ops = 0;
  /// Identity of the code under test, as the launcher found it.
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  /// Print the committed-digest line for this workload and seed and exit.
  bool write_digests = false;
};

/// Where spans and spill files go, relative to the checkout root.
inline const std::string kWorkDir = ".bench_build";

/// Seconds on the steady clock since the first call in this process.
double Now();

double Median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// Logical CPUs the benchmark may use — the thread budget.
size_t Nproc();

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

// ------------------------------------------------------- result checking

/// One cell of a canonical result row.
struct Cell {
  enum Kind { kNull, kInt, kDouble, kString } kind = kNull;
  int64_t i = 0;
  double d = 0.0;
  std::string s;
};
using Row = std::vector<Cell>;

/// A query result as a sorted row multiset, so results of different plan
/// shapes, worker counts and storage paths compare without regard to row
/// order. Rows sort by their exact (non-double) cells first, so two runs
/// whose sums differ in the last bits still pair up row for row.
struct Canonical {
  std::vector<Row> rows;
};

Canonical Canonicalize(const QueryResult& result);
/// Equal row multisets; doubles agree to a relative 1e-9 (summation order
/// differs between single-node and partitioned aggregation).
bool SameRows(const Canonical& a, const Canonical& b);
/// Stable digest of a canonical result: doubles at 9 significant digits,
/// so it survives last-bit summation changes but not a wrong answer.
uint64_t Digest(const Canonical& c);
uint64_t CombineDigests(const std::vector<uint64_t>& digests);
std::string Hex(uint64_t v);

/// Distinct results seen for each query instance during the timed run,
/// checked against the reference configuration afterwards.
class ResultBook {
 public:
  void Record(const std::string& instance, const QueryResult& result);
  /// Compare every recorded result with `reference` (instance -> rows);
  /// returns how many distinct recorded results mismatched, and the ops
  /// that produced them (each op carrying a mismatched result fails).
  long CountMismatchedOps(
      const std::map<std::string, Canonical>& reference,
      std::vector<std::string>* reasons) const;
  void MergeFrom(const ResultBook& other);

 private:
  struct Seen {
    Canonical rows;
    long ops = 0;
  };
  std::map<std::string, std::vector<Seen>> seen_;
};

/// The committed reference digest for (workload, seed), or "" when the
/// digest file has none. Looked up in perfbench/digests.json.
std::string CommittedDigest(const std::string& workload, uint64_t seed);

// ---------------------------------------------------------- layer samples

/// Per-layer observations gathered from the counters each facade call
/// returns and from the spans around those calls. Merged across client
/// threads at the end of a run.
struct LayerSamples {
  // Span durations (seconds), traced ops only.
  std::vector<double> bind_s, plan_miss_s, exec_s, calibrate_s, settle_s,
      admit_s, append_s;
  std::vector<double> latency_q_error, dollar_q_error;
  double traced_query_s = 0.0;  // summed root `query` span durations
  double traced_exec_s = 0.0;   // summed exec.execute durations inside them
  // Cycle time of traced vs untraced ops (for trace.overhead_frac).
  double traced_cycle_s = 0.0, untraced_cycle_s = 0.0;
  long traced_ops = 0, untraced_ops = 0;
  /// Dollars the facade settled for traced ops (the ledger's figure for
  /// untraced ops comes from Session::spent()).
  double traced_settled = 0.0;

  // Counters from every op's ExecutionResult.
  long queries = 0;
  double source_rows = 0.0, pipeline_s = 0.0;
  double fused_morsels = 0.0, scan_morsels = 0.0;
  double exchange_s = 0.0, link_s = 0.0, wire_bytes = 0.0;
  double egress_dollars = 0.0;
  int64_t block_hits = 0, block_misses = 0, block_evictions = 0;
  double miss_s = 0.0;

  void AddResult(const ExecutionResult& r);
  /// Records how far the plan's estimates were from what the traced query
  /// measured (execute seconds) and settled (dollars), as q-errors.
  void AddEstimateErrors(double est_latency, double measured_s,
                         double est_dollars, double settled_dollars);
  void MergeFrom(const LayerSamples& o);
};

/// Billing and cache counters of a Database, snapshotted at the start and
/// end of the timed region; the deltas are the run's dollars.
struct BillSnapshot {
  double ledger_spent = 0.0;  // summed Session::spent() of the run's sessions
  double tenant_dollars = 0.0, tenant_get_dollars = 0.0;
  int64_t tenant_gets = 0;
  double storage_dollars = 0.0;
  int64_t storage_gets = 0, storage_puts = 0;
  double egress_dollars = 0.0, egress_wire_bytes = 0.0;
  size_t plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  int calibration_version = 0;
};

/// Settles outstanding object-store requests, then reads every bill.
BillSnapshot TakeBill(Database* db,
                      const std::vector<costdb::Session*>& sessions);

// ------------------------------------------------------------ the report

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& reason);
  void Config(const std::string& key, const std::string& json_value);
  void Count(const std::string& key, double value);

  bool correct() const { return failures_.empty() && failed == 0; }
  long attempted = 0;
  long failed = 0;

  /// Prints the config line, the exact-repeat counts, any failure reasons
  /// (stderr), and the result object as the last stdout line.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::string> failures_;
};

/// Throughput as the median over the run's rounds: `round_size` queries
/// per round, `round_s` the wall time of each complete round.
double RoundThroughput(const std::vector<double>& round_s, size_t round_size);

/// Throughput as the median over one-second windows of the timed region
/// of the completion rate inside each (`done_at` on the Now() clock).
double WindowThroughput(std::vector<double> done_at, double start, double end);

/// End-to-end metrics shared by every workload. `elapsed_s` is the timed
/// region's wall time; `latencies_s` one entry per completed query.
void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const std::vector<double>& latencies_s, double elapsed_s,
                    double throughput_qps, double dollars,
                    double peak_rss_mib);

/// Dollar decomposition (each dollar counted once) and its conservation
/// checks; adds the cloud.* metrics when `per_layer` is set. Returns the
/// run's total dollars.
double AccountDollars(Report* report, Database* db, const BillSnapshot& begin,
                      const BillSnapshot& end, const LayerSamples& samples,
                      bool per_layer);

/// Per-layer metrics common to all workloads (traced runs).
void ReportLayers(Report* report, const LayerSamples& s, const Trace& trace,
                  const BillSnapshot& begin, const BillSnapshot& end);

/// Writes the run's spans to kWorkDir/traces/<workload>-seed<n>.jsonl.
void WriteTrace(const Trace& trace, const Args& args);

/// Records the configuration fields every workload shares.
void ReportCommonConfig(Report* report, const Args& args,
                        const costdb::DatabaseOptions& options, double scale,
                        size_t client_threads, size_t engine_threads);

/// Runs one facade query the way Session::RunSync does, as a root `query`
/// span with a child around each facade call, plus an extra BindSql for
/// the sql.bind span. The traced runs of the single-client workloads use
/// it in place of Session::ExecuteSql.
costdb::Result<ExecutionResult> TracedQuery(
    Database* db, const std::string& sql,
    const costdb::UserConstraint& constraint, int64_t query_id, Trace* trace,
    LayerSamples* samples);

/// Pre-pruning scan morsels of a plan: the row groups of every scanned
/// table (the denominator of exec.fused_morsel_share).
double ScanMorsels(const costdb::PhysicalPlan* node);

}  // namespace perfbench
