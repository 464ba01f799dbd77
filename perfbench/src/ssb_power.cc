// ssb_power: one analyst, SSB scale 1.0 in RAM, the 12-query suite in a
// seeded order per round. The exec layer does nearly all the work.

#include "workload/ssb.h"
#include "workloads.h"

namespace perfbench {

namespace {

using costdb::Database;
using costdb::DatabaseOptions;
using costdb::Session;

constexpr double kScale = 1.0;

std::unique_ptr<Database> Load(uint64_t seed, const DatabaseOptions& options) {
  auto db = std::make_unique<Database>(options);
  costdb::SsbOptions data;
  data.scale = kScale;
  data.seed = DataSeed(seed);
  costdb::LoadSsb(db->meta(), data);
  return db;
}

DatabaseOptions PowerOptions() {
  DatabaseOptions options;
  options.exec_threads = Nproc();
  return options;
}

/// Reference rows of the suite, and their digest in suite order.
std::map<std::string, Canonical> Reference(uint64_t seed, uint64_t* digest,
                                           Report* report) {
  DatabaseOptions options;
  options.exec_threads = kReferenceThreads;
  options.enable_calibration = false;
  auto db = Load(seed, options);
  Session session(db.get());
  std::map<std::string, Canonical> ref;
  std::vector<uint64_t> digests;
  for (const auto& q : costdb::SsbQueries()) {
    auto r = session.ExecuteSql(q.sql);
    if (!r.ok()) {
      report->Fail("reference " + q.id + ": " + r.status().ToString());
      continue;
    }
    ref[q.id] = Canonicalize(r->result);
    digests.push_back(Digest(ref[q.id]));
  }
  *digest = CombineDigests(digests);
  return ref;
}

}  // namespace

void RunSsbPower(const Args& args, Report* report) {
  if (args.write_digests) {
    uint64_t digest = 0;
    Reference(args.seed, &digest, report);
    CheckDigest(args, digest, report);
    return;
  }
  const DatabaseOptions options = PowerOptions();
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  for (int k = 0; AnotherSetup(setup_s); ++k) {
    db.reset();
    const double t0 = Now();
    db = Load(args.seed, options);
    setup_s.push_back(Now() - t0);
  }
  Session session(db.get());
  const auto suite = costdb::SsbQueries();
  const costdb::UserConstraint constraint;  // workers = 1

  // Warm-up: one untimed round fills lazy engines and the plan cache.
  for (const auto& q : suite) (void)session.ExecuteSql(q.sql);

  SuiteRounds rounds(args.seed, suite.size());
  ResultBook book;
  LayerSamples samples;
  Trace trace;
  std::vector<double> latencies, round_s;
  const BillSnapshot begin = TakeBill(db.get(), {&session});
  const double start = Now();
  const double deadline = start + args.seconds;
  double round_start = start;
  long op = 0;
  // Timed runs finish the round they are in, so every run sees the suite's
  // mix in whole rounds.
  while (args.ops > 0 ? op < args.ops
                      : !(rounds.round_done() && Now() >= deadline)) {
    const auto& q = suite[rounds.Next()];
    // Traced runs alternate traced and untraced queries, so drift over the
    // run cancels out of trace.overhead_frac.
    const bool traced = args.trace && op % 2 == 0;
    const double a = Now();
    auto r = traced
                 ? TracedQuery(db.get(), q.sql, constraint, op, &trace, &samples)
                 : session.ExecuteSql(q.sql);
    const double b = Now();
    ++op;
    ++report->attempted;
    (traced ? samples.traced_cycle_s : samples.untraced_cycle_s) += b - a;
    ++(traced ? samples.traced_ops : samples.untraced_ops);
    if (!r.ok()) {
      ++report->failed;
      report->Fail(q.id + ": " + r.status().ToString());
    } else {
      latencies.push_back(b - a);
      samples.AddResult(*r);
      book.Record(q.id, r->result);
    }
    if (rounds.round_done()) {
      round_s.push_back(b - round_start);
      round_start = b;
    }
  }
  const double elapsed = Now() - start;
  const BillSnapshot end = TakeBill(db.get(), {&session});
  const double peak_rss = PeakRssMiB();
  const double dollars =
      AccountDollars(report, db.get(), begin, end, samples, args.trace);

  ReportCommonConfig(report, args, options, kScale, 1, options.exec_threads);
  if (args.trace) {
    ReportLayers(report, samples, trace, begin, end);
    ReportIngestLayers(report, IngestFigures{});
    WriteTrace(trace, args);
  } else {
    ReportEndToEnd(report, setup_s, latencies, elapsed,
                   RoundThroughput(round_s, suite.size()), dollars, peak_rss);
  }
  report->Count("exec.source_rows", samples.source_rows);
  report->Count("optimizer.invalidations",
                static_cast<double>(end.plan_invalidations -
                                    begin.plan_invalidations));
  report->Count("cost.calibration_bumps",
                end.calibration_version - begin.calibration_version);

  db.reset();
  uint64_t digest = 0;
  const auto ref = Reference(args.seed, &digest, report);
  std::vector<std::string> reasons;
  const long bad = book.CountMismatchedOps(ref, &reasons);
  report->failed += bad;
  for (const auto& why : reasons) report->Fail(why);
  CheckDigest(args, digest, report);
}

}  // namespace perfbench
