// cold_sharded_ingest: one analyst on SSB scale 0.3 whose `lineorder` is
// persisted behind a block cache of half its decoded bytes, queried at four
// workers over the socket transport, with seeded row batches appended
// between queries so memtable flushes and costed compaction run alongside
// the cold reads.

#include <filesystem>
#include <unistd.h>

#include "exec/sharded_engine.h"
#include "workload/ssb.h"
#include "workloads.h"

namespace perfbench {

namespace {

using costdb::DatabaseOptions;
using costdb::DataChunk;
using costdb::Session;
using costdb::Table;

constexpr double kScale = 0.3;
/// Source of the appended batches: a second SSB instance at a derived seed.
constexpr double kPoolScale = 0.1;
constexpr size_t kBatchRows = 128;
/// Flush every 16 appends, so a run sees tens of flushes and the level-0
/// fanout triggers compaction (the default, 64k rows, would flush about
/// once per run).
constexpr size_t kFlushRows = 2048;
constexpr int kWorkers = 4;
/// Queries the committed digest covers (the reference replays at least
/// this many, even when the timed run did fewer).
constexpr long kDigestOps = 64;

const char* const kTables[] = {"dates", "customer", "supplier",
                               "part",  "lineorder", "shipments"};

struct Ingest {
  std::unique_ptr<Database> db;
  std::shared_ptr<Table> lineorder;
  DataChunk pool;
  double decoded_bytes = 0.0;  // of lineorder as loaded
  std::string spill_dir;

  void Reset() {
    lineorder.reset();
    db.reset();
    if (!spill_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(spill_dir, ec);
    }
  }
};

/// Loads the data and, unless `reference`, persists lineorder behind a
/// block cache of half its decoded bytes.
costdb::Status SetUp(uint64_t seed, bool reference, const std::string& spill,
                     Ingest* out) {
  costdb::MetadataService loaded;
  costdb::SsbOptions data;
  data.scale = kScale;
  data.seed = DataSeed(seed);
  costdb::LoadSsb(&loaded, data);
  costdb::MetadataService side;
  data.scale = kPoolScale;
  data.seed = SideDataSeed(seed);
  costdb::LoadSsb(&side, data);
  auto pool_table = side.GetTable("lineorder");
  if (!pool_table.ok()) return pool_table.status();
  out->pool = (*pool_table)->Scan();

  auto lineorder = loaded.GetTable("lineorder");
  if (!lineorder.ok()) return lineorder.status();
  out->lineorder = *lineorder;
  out->decoded_bytes = 0.0;
  for (const auto& group : out->lineorder->row_groups()) {
    out->decoded_bytes += costdb::ChunkPayloadBytes(group.data);
  }

  DatabaseOptions options;
  if (reference) {
    options.exec_threads = kReferenceThreads;
    options.enable_calibration = false;
  } else {
    options.enable_persistent_storage = true;
    options.block_cache_bytes = static_cast<size_t>(out->decoded_bytes / 2);
    options.storage_spill_dir = spill;
    options.storage.memtable_flush_rows = kFlushRows;
    options.exchange_transport = costdb::TransportKind::kSocket;
    out->spill_dir = spill;
  }
  out->db = std::make_unique<Database>(options);
  for (const char* name : kTables) {
    auto t = loaded.GetTable(name);
    if (!t.ok()) return t.status();
    out->db->meta()->RegisterTable(*t);
  }
  out->db->meta()->AnalyzeAll();
  if (!reference) {
    const costdb::Status st = out->db->PersistTable("lineorder");
    if (!st.ok()) return st;
  }
  return costdb::Status::OK();
}

DataChunk Batch(const DataChunk& pool, long op) {
  DataChunk batch(pool.Types());
  size_t from = (static_cast<size_t>(op) * kBatchRows) % pool.num_rows();
  size_t left = kBatchRows;
  while (left > 0) {
    const size_t n = std::min(left, pool.num_rows() - from);
    batch.AppendRange(pool, from, from + n);
    left -= n;
    from = 0;
  }
  return batch;
}

/// Replays `ops` operations (query, then append) on the reference
/// configuration; the digest covers the first kDigestOps queries.
std::map<std::string, Canonical> Reference(uint64_t seed, long ops,
                                           uint64_t* digest,
                                           Report* report) {
  std::map<std::string, Canonical> ref;
  Ingest ing;
  const costdb::Status st = SetUp(seed, /*reference=*/true, "", &ing);
  if (!st.ok()) {
    report->Fail("reference set-up: " + st.ToString());
    return ref;
  }
  Session session(ing.db.get());
  const auto suite = costdb::SsbQueries();
  const long n = std::max(ops, kDigestOps);
  SuiteRounds rounds(seed, suite.size());
  std::vector<uint64_t> digests;
  for (long i = 0; i < n; ++i) {
    const std::string id = "op" + std::to_string(i);
    auto r = session.ExecuteSql(suite[rounds.Next()].sql);
    if (r.ok()) {
      ref[id] = Canonicalize(r->result);
      if (i < kDigestOps) digests.push_back(Digest(ref[id]));
    } else {
      report->Fail("reference " + id + ": " + r.status().ToString());
    }
    ing.lineorder->Append(Batch(ing.pool, i));
  }
  *digest = CombineDigests(digests);
  ing.Reset();
  return ref;
}

}  // namespace

void RunColdShardedIngest(const Args& args, Report* report) {
  if (args.write_digests) {
    uint64_t digest = 0;
    Reference(args.seed, 0, &digest, report);
    CheckDigest(args, digest, report);
    return;
  }
  const std::string spill_root = kWorkDir + "/spill";
  std::vector<double> setup_s;
  Ingest ing;
  for (int k = 0; AnotherSetup(setup_s); ++k) {
    ing.Reset();
    const std::string spill = spill_root + "/" + std::to_string(getpid()) +
                              "-" + std::to_string(k);
    const double t0 = Now();
    const costdb::Status st = SetUp(args.seed, false, spill, &ing);
    setup_s.push_back(Now() - t0);
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      ing.Reset();
      return;
    }
  }
  Database* db = ing.db.get();
  Session session(db);
  const auto suite = costdb::SsbQueries();
  const auto constraint = costdb::UserConstraint().WithWorkers(kWorkers);

  // Warm-up: one untimed round of the suite (no appends, so the reference
  // needs no replay of it).
  for (const auto& q : suite) (void)session.ExecuteSql(q.sql, constraint);

  ResultBook book;
  LayerSamples samples;
  Trace trace;
  std::vector<double> latencies;
  double appended_rows = 0.0, appended_bytes = 0.0, append_s = 0.0;
  auto manifest = db->meta()->GetBlockManifest("lineorder");
  if (!manifest.ok()) {
    report->Fail("manifest: " + manifest.status().ToString());
    ing.Reset();
    return;
  }
  const costdb::BlockManifestSummary man_begin = *manifest;
  const BillSnapshot begin = TakeBill(db, {&session});
  SuiteRounds rounds(args.seed, suite.size());
  std::vector<double> round_s;
  const double start = Now();
  const double deadline = start + args.seconds;
  double round_start = start;
  long op = 0;
  while (args.ops > 0 ? op < args.ops
                      : !(rounds.round_done() && Now() >= deadline)) {
    const auto& q = suite[rounds.Next()];
    const bool traced = args.trace && op % 2 == 0;
    const double a = Now();
    auto r = traced ? TracedQuery(db, q.sql, constraint, op, &trace, &samples)
                    : session.ExecuteSql(q.sql, constraint);
    const double b = Now();
    ++report->attempted;
    (traced ? samples.traced_cycle_s : samples.untraced_cycle_s) += b - a;
    ++(traced ? samples.traced_ops : samples.untraced_ops);
    if (!r.ok()) {
      ++report->failed;
      report->Fail("op" + std::to_string(op) + " " + q.id + ": " +
                   r.status().ToString());
    } else {
      latencies.push_back(b - a);
      samples.AddResult(*r);
      book.Record("op" + std::to_string(op), r->result);
    }

    const DataChunk batch = Batch(ing.pool, op);
    const double c = Now();
    ing.lineorder->Append(batch);
    const double d = Now();
    if (traced) {
      trace.Commit(TraceOp::Closed("storage.append", op, c, d));
      samples.append_s.push_back(d - c);
    }
    append_s += d - c;
    appended_rows += static_cast<double>(batch.num_rows());
    appended_bytes += costdb::ChunkPayloadBytes(batch);
    ++op;
    if (rounds.round_done()) {
      round_s.push_back(d - round_start);
      round_start = d;
    }
  }
  const double elapsed = Now() - start;
  const BillSnapshot end = TakeBill(db, {&session});
  const double peak_rss = PeakRssMiB();
  const double dollars =
      AccountDollars(report, db, begin, end, samples, args.trace);
  if (!ing.lineorder->last_storage_error().ok()) {
    report->Fail("storage: " + ing.lineorder->last_storage_error().ToString());
  }
  manifest = db->meta()->GetBlockManifest("lineorder");
  const costdb::BlockManifestSummary man_end =
      manifest.ok() ? *manifest : costdb::BlockManifestSummary{};

  DatabaseOptions options = db->options();
  ReportCommonConfig(report, args, options, kScale, 1, kWorkers);
  report->Config("workers", std::to_string(kWorkers));
  report->Config("transport", "\"socket\"");
  report->Config("lineorder_decoded_bytes",
                 std::to_string(static_cast<long long>(ing.decoded_bytes)));
  report->Config("block_cache_bytes",
                 std::to_string(options.block_cache_bytes));
  report->Config("memtable_flush_rows", std::to_string(kFlushRows));
  report->Config("batch_rows", std::to_string(kBatchRows));
  if (args.trace) {
    ReportLayers(report, samples, trace, begin, end);
    IngestFigures f;
    f.rows_per_s = append_s > 0.0 ? appended_rows / append_s : 0.0;
    // Live bytes are every loaded and appended row; the manifest holds all
    // but the resident memtable tail, so compare like with like.
    const double live = ing.decoded_bytes + appended_bytes;
    const double rows = static_cast<double>(ing.lineorder->num_rows());
    const double persisted_live =
        rows > 0.0 ? live * static_cast<double>(man_end.rows) / rows : 0.0;
    f.space_amp = persisted_live > 0.0 ? man_end.bytes / persisted_live : 0.0;
    f.flushes = static_cast<double>(man_end.flushes - man_begin.flushes);
    f.compactions =
        static_cast<double>(man_end.compactions - man_begin.compactions);
    ReportIngestLayers(report, f);
    WriteTrace(trace, args);
  } else {
    ReportEndToEnd(report, setup_s, latencies, elapsed,
                   RoundThroughput(round_s, suite.size()), dollars, peak_rss);
  }
  report->Count("exec.source_rows", samples.source_rows);
  report->Count("net.wire_bytes", samples.wire_bytes);
  report->Count("storage.gets",
                static_cast<double>(end.storage_gets - begin.storage_gets));
  report->Count("storage.puts",
                static_cast<double>(end.storage_puts - begin.storage_puts));
  report->Count("storage.block_misses",
                static_cast<double>(samples.block_misses));
  report->Count("storage.flushes",
                static_cast<double>(man_end.flushes - man_begin.flushes));
  report->Count("storage.compactions",
                static_cast<double>(man_end.compactions -
                                    man_begin.compactions));
  report->Count("optimizer.invalidations",
                static_cast<double>(end.plan_invalidations -
                                    begin.plan_invalidations));
  report->Count("cost.calibration_bumps",
                end.calibration_version - begin.calibration_version);

  ing.Reset();
  uint64_t digest = 0;
  const auto ref = Reference(args.seed, op, &digest, report);
  std::vector<std::string> reasons;
  report->failed += book.CountMismatchedOps(ref, &reasons);
  for (const auto& why : reasons) report->Fail(why);
  CheckDigest(args, digest, report);
}

}  // namespace perfbench
