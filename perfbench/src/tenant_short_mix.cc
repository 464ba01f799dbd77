// tenant_short_mix: eight closed-loop analysts in two tenants of unequal
// fair-share weight, on SSB scale 0.01. Queries execute in well under a
// millisecond, so bind, plan caching, calibration feedback, admission and
// billing are most of each query's latency.

#include <atomic>
#include <functional>
#include <thread>

#include "common/rng.h"
#include "sql/shape.h"
#include "workload/ssb.h"
#include "workloads.h"

namespace perfbench {

namespace {

using costdb::AdmissionController;
using costdb::DatabaseOptions;
using costdb::DataChunk;
using costdb::PreparedStatementPtr;
using costdb::QueryHandlePtr;
using costdb::Rng;
using costdb::Session;
using costdb::Value;

constexpr double kScale = 0.01;
constexpr size_t kSessions = 8;
constexpr size_t kAdmissionSlots = 4;
constexpr int kVectorsPerStatement = 64;
constexpr double kWarmupSeconds = 1.0;
const char* const kTenants[] = {"gold", "bronze"};

/// Parameterized forms of suite queries, with the generator of their
/// parameter vectors.
struct Statement {
  const char* sql;
  std::function<std::vector<Value>(Rng*)> params;
};

const std::vector<Statement>& Statements() {
  static const std::vector<Statement> statements = {
      {"SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder "
       "WHERE lo_discount BETWEEN ? AND ? AND lo_quantity < ?",
       [](Rng* r) {
         const int64_t lo = r->UniformInt(0, 5);
         return std::vector<Value>{Value(lo), Value(lo + r->UniformInt(1, 4)),
                                   Value(r->UniformInt(10, 40))};
       }},
      {"SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, dates "
       "WHERE lo_datekey = d_datekey AND d_year = ? GROUP BY d_year",
       [](Rng* r) {
         return std::vector<Value>{Value(r->UniformInt(1992, 1998))};
       }},
      {"SELECT s_nation, d_year, sum(lo_revenue) AS rev "
       "FROM lineorder, supplier, dates "
       "WHERE lo_suppkey = s_suppkey AND lo_datekey = d_datekey "
       "AND s_region = ? GROUP BY s_nation, d_year",
       [](Rng* r) {
         static const char* regions[] = {"AMERICA", "ASIA", "EUROPE",
                                         "AFRICA", "MIDEAST"};
         return std::vector<Value>{
             Value(std::string(regions[r->UniformInt(0, 4)]))};
       }},
      {"SELECT count(*) AS n, sum(lo_revenue) AS rev FROM lineorder "
       "WHERE lo_orderkey < ?",
       [](Rng* r) {
         return std::vector<Value>{Value(r->UniformInt(100, 6000))};
       }},
      {"SELECT lo_orderkey, lo_revenue FROM lineorder "
       "WHERE lo_quantity > ? ORDER BY lo_revenue DESC LIMIT 10",
       [](Rng* r) {
         return std::vector<Value>{Value(r->UniformInt(20, 48))};
       }},
      {"SELECT s_region, count(*) AS n FROM shipments, supplier "
       "WHERE sh_suppkey = s_suppkey AND sh_quantity < ? "
       "GROUP BY s_region ORDER BY n DESC",
       [](Rng* r) {
         return std::vector<Value>{Value(r->UniformInt(5, 40))};
       }},
  };
  return statements;
}

/// Seeded parameter vectors: [statement][vector].
using ParamPool = std::vector<std::vector<std::vector<Value>>>;

ParamPool MakeParams(uint64_t seed) {
  Rng rng(SideDataSeed(seed));
  ParamPool pool;
  for (const Statement& s : Statements()) {
    pool.emplace_back();
    for (int v = 0; v < kVectorsPerStatement; ++v) {
      pool.back().push_back(s.params(&rng));
    }
  }
  return pool;
}

/// One query instance: a prepared statement with one of its parameter
/// vectors, or one literal suite query.
struct Instance {
  bool prepared = false;
  int index = 0;   // statement, or suite query
  int vector = 0;  // prepared only
  std::string id() const {
    return prepared ? "P" + std::to_string(index) + "#" +
                          std::to_string(vector)
                    : "L" + std::to_string(index);
  }
};

Instance NextInstance(Rng* rng, size_t suite_size) {
  Instance inst;
  inst.prepared = rng->NextDouble() < 0.5;
  if (inst.prepared) {
    inst.index =
        static_cast<int>(rng->UniformInt(0, Statements().size() - 1));
    inst.vector = static_cast<int>(rng->UniformInt(0, kVectorsPerStatement - 1));
  } else {
    inst.index = static_cast<int>(rng->UniformInt(0, suite_size - 1));
  }
  return inst;
}

DatabaseOptions MixOptions() {
  DatabaseOptions options;
  options.exec_threads = 1;
  options.admission.max_concurrent = kAdmissionSlots;
  options.admission.tenant_quotas["gold"].weight = 3.0;
  options.admission.tenant_quotas["bronze"].weight = 1.0;
  return options;
}

/// A loaded database with its analysts' sessions and prepared statements.
struct Mix {
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::vector<PreparedStatementPtr>> prepared;  // [session]

  /// Sessions and statements go before the database they reference.
  void Reset() {
    prepared.clear();
    sessions.clear();
    db.reset();
  }
};

costdb::Status SetUp(uint64_t seed, const DatabaseOptions& options,
                     size_t sessions, Mix* mix) {
  mix->db = std::make_unique<Database>(options);
  costdb::SsbOptions data;
  data.scale = kScale;
  data.seed = DataSeed(seed);
  costdb::LoadSsb(mix->db->meta(), data);
  for (size_t s = 0; s < sessions; ++s) {
    costdb::SessionOptions so;
    so.tenant_id = kTenants[s % 2];
    mix->sessions.push_back(std::make_unique<Session>(mix->db.get(), so));
    mix->prepared.emplace_back();
    for (const Statement& st : Statements()) {
      auto p = mix->sessions.back()->Prepare(st.sql);
      if (!p.ok()) return p.status();
      mix->prepared.back().push_back(*p);
    }
  }
  return costdb::Status::OK();
}

/// Reference rows of every instance; digest over statements x vectors,
/// then the suite, in order.
std::map<std::string, Canonical> Reference(uint64_t seed,
                                           const ParamPool& params,
                                           uint64_t* digest, Report* report) {
  DatabaseOptions options;
  options.exec_threads = kReferenceThreads;
  options.enable_calibration = false;
  Mix mix;
  std::map<std::string, Canonical> ref;
  std::vector<uint64_t> digests;
  const costdb::Status st = SetUp(seed, options, 1, &mix);
  if (!st.ok()) {
    report->Fail("reference set-up: " + st.ToString());
    return ref;
  }
  Session& session = *mix.sessions[0];
  auto keep = [&](const std::string& id,
                  const costdb::Result<ExecutionResult>& r) {
    if (!r.ok()) {
      report->Fail("reference " + id + ": " + r.status().ToString());
      return;
    }
    ref[id] = Canonicalize(r->result);
    digests.push_back(Digest(ref[id]));
  };
  for (size_t s = 0; s < Statements().size(); ++s) {
    for (int v = 0; v < kVectorsPerStatement; ++v) {
      Instance inst{true, static_cast<int>(s), v};
      keep(inst.id(), session.Execute(mix.prepared[0][s], params[s][v]));
    }
  }
  const auto suite = costdb::SsbQueries();
  for (size_t q = 0; q < suite.size(); ++q) {
    Instance inst{false, static_cast<int>(q), 0};
    keep(inst.id(), session.ExecuteSql(suite[q].sql));
  }
  *digest = CombineDigests(digests);
  return ref;
}

/// Collects the streamed result chunks of a traced submission.
struct CollectSink : costdb::ChunkSink {
  DataChunk rows;
  costdb::Status Push(DataChunk chunk) override {
    if (rows.num_columns() == 0) {
      rows = std::move(chunk);
    } else {
      rows.Append(chunk);
    }
    return costdb::Status::OK();
  }
};

/// A traced submission: the facade calls Session::Submit makes, replayed
/// from here so each gets a span. The admission worker fills the run
/// fields; the client reads them after AdmissionController::Await, whose
/// lock orders the two.
struct TracedSubmit {
  explicit TracedSubmit(int64_t query_id) : op("query", query_id) {}
  TraceOp op;
  std::shared_ptr<const costdb::PlannedQuery> plan;
  bool cache_hit = false;
  std::string result_key;
  double estimated = 0.0;
  AdmissionController::TicketPtr ticket;
  double submitted = 0.0, started = 0.0, executed = 0.0, calibrated = 0.0,
         settled = 0.0;
  double actual = 0.0;
  CollectSink sink;
  costdb::Result<ExecutionResult> result =
      costdb::Status::Cancelled("not run");
};

/// One analyst's query in flight.
struct Pending {
  Instance inst;
  double started = 0.0;
  QueryHandlePtr handle;              // untraced: through Session::Submit
  std::shared_ptr<TracedSubmit> ts;   // traced: replayed facade calls
  costdb::Status submit_error;
};

/// State shared by the client threads of one timed (or warm-up) loop.
struct Loop {
  Mix* mix = nullptr;
  const ParamPool* params = nullptr;
  std::vector<costdb::QueryTemplate> suite;
  bool trace = false;
  double deadline = 0.0;
  long max_ops = 0;  // 0 = until the deadline
  std::atomic<long> ops{0};
  std::atomic<int64_t> next_query_id{0};
  Trace* trace_log = nullptr;
};

/// Per-thread outcome, merged after the threads join.
struct ClientTally {
  std::vector<double> latencies;
  std::vector<double> done_at;  // completion times, for WindowThroughput
  LayerSamples samples;
  ResultBook book;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  double last_done = 0.0;
};

std::shared_ptr<TracedSubmit> StartTraced(Loop* loop, size_t s,
                                          const Instance& inst,
                                          LayerSamples* samples) {
  Database* db = loop->mix->db.get();
  auto ts = std::make_shared<TracedSubmit>(loop->next_query_id++);
  const costdb::UserConstraint constraint;
  const std::string sql = inst.prepared ? Statements()[inst.index].sql
                                        : loop->suite[inst.index].sql;
  const double t0 = Now();
  auto bound = db->BindSql(sql);
  const double t1 = Now();
  ts->op.Child("sql.bind", t0, t1);
  samples->bind_s.push_back(t1 - t0);
  if (!bound.ok()) {
    ts->result = bound.status();
    return ts;
  }
  costdb::Status plan_status;
  if (inst.prepared) {
    const auto& params = (*loop->params)[inst.index][inst.vector];
    const std::string shape = costdb::NormalizeStatementShape(sql);
    auto cached =
        db->PlanCachedBound(*bound, shape, constraint, &ts->cache_hit);
    if (cached.ok()) {
      auto planned = db->BindPreparedPlan(**cached, *bound, params);
      if (planned.ok()) {
        ts->plan =
            std::make_shared<const costdb::PlannedQuery>(std::move(*planned));
        ts->result_key = Database::ResultKey(shape, constraint, params);
      } else {
        plan_status = planned.status();
      }
    } else {
      plan_status = cached.status();
    }
  } else {
    auto planned = db->PlanCachedSql(sql, constraint, &ts->cache_hit);
    if (planned.ok()) {
      ts->plan = *planned;
      ts->result_key = Database::ResultKey(
          costdb::NormalizeStatementShape(sql), constraint, {});
    } else {
      plan_status = planned.status();
    }
  }
  const double t2 = Now();
  ts->op.Child("optimizer.plan", t1, t2);
  if (!ts->cache_hit) samples->plan_miss_s.push_back(t2 - t1);
  if (!plan_status.ok()) {
    ts->result = plan_status;
    return ts;
  }
  ts->estimated = ts->plan->estimate.cost;

  AdmissionController::Submission sub;
  sub.est_latency = ts->plan->estimate.latency;
  sub.est_cost = ts->estimated;
  sub.tenant = loop->mix->sessions[s]->options().tenant_id;
  const std::string tenant = sub.tenant;
  const size_t exec_threads = db->options().exec_threads;
  sub.run = [ts, db, tenant, exec_threads] {
    ts->started = Now();
    std::unique_ptr<costdb::LocalEngine> engine;
    if (ts->plan->workers <= 1) {
      engine = std::make_unique<costdb::LocalEngine>(exec_threads);
    }
    auto executed = db->ExecutePlannedCached(ts->plan, ts->cache_hit,
                                             ts->result_key, &ts->sink,
                                             engine.get(), tenant);
    ts->executed = Now();
    ts->calibrated = ts->settled = ts->executed;
    if (executed.ok()) {
      db->CalibrateExecution(&*executed);
      ts->calibrated = Now();
      ts->actual = db->SettleTenantBill(tenant, &*executed, ts->estimated);
      ts->settled = Now();
      executed->result.chunk = std::move(ts->sink.rows);
    }
    ts->result = std::move(executed);
  };
  ts->submitted = Now();
  ts->ticket = db->admission()->Submit(std::move(sub));
  return ts;
}

Pending Start(Loop* loop, size_t s, Rng* rng, bool traced,
              LayerSamples* samples) {
  Pending p;
  p.inst = NextInstance(rng, loop->suite.size());
  p.started = Now();
  if (traced) {
    p.ts = StartTraced(loop, s, p.inst, samples);
    return p;
  }
  Session* session = loop->mix->sessions[s].get();
  auto handle =
      p.inst.prepared
          ? session->Submit(loop->mix->prepared[s][p.inst.index],
                            (*loop->params)[p.inst.index][p.inst.vector])
          : session->Submit(loop->suite[p.inst.index].sql);
  if (handle.ok()) {
    p.handle = *handle;
  } else {
    p.submit_error = handle.status();
  }
  return p;
}

void Finish(Loop* loop, Pending* p, ClientTally* tally) {
  costdb::Result<ExecutionResult> r = costdb::Status::Cancelled("not run");
  if (p->ts != nullptr) {
    TracedSubmit& ts = *p->ts;
    if (ts.ticket != nullptr) loop->mix->db->admission()->Await(ts.ticket);
    r = std::move(ts.result);
    ts.op.Finish();
    if (ts.ticket != nullptr) {
      ts.op.Child("service.admit", ts.submitted, ts.started);
      ts.op.Child("exec.execute", ts.started, ts.executed);
      ts.op.Child("cost.calibrate", ts.executed, ts.calibrated);
      ts.op.Child("service.settle", ts.calibrated, ts.settled);
      LayerSamples& s = tally->samples;
      s.admit_s.push_back(ts.started - ts.submitted);
      s.exec_s.push_back(ts.executed - ts.started);
      if (r.ok()) {
        s.calibrate_s.push_back(ts.calibrated - ts.executed);
        s.settle_s.push_back(ts.settled - ts.calibrated);
        s.traced_settled += ts.actual;
        s.AddEstimateErrors(ts.plan->estimate.latency,
                            ts.executed - ts.started, ts.estimated,
                            ts.actual);
      }
      s.traced_exec_s += ts.executed - ts.started;
    }
    loop->trace_log->Commit(ts.op);
    tally->samples.traced_query_s += ts.op.duration();
  } else if (p->handle != nullptr) {
    r = p->handle->Take();
  } else {
    r = p->submit_error;
  }
  const double done = Now();
  tally->last_done = std::max(tally->last_done, done);
  ++tally->attempted;
  const double cycle = done - p->started;
  if (p->ts != nullptr) {
    tally->samples.traced_cycle_s += cycle;
    ++tally->samples.traced_ops;
  } else {
    tally->samples.untraced_cycle_s += cycle;
    ++tally->samples.untraced_ops;
  }
  if (!r.ok()) {
    ++tally->failed;
    if (tally->errors.size() < 4) {
      tally->errors.push_back(p->inst.id() + ": " + r.status().ToString());
    }
    return;
  }
  tally->latencies.push_back(cycle);
  tally->done_at.push_back(done);
  tally->samples.AddResult(*r);
  tally->book.Record(p->inst.id(), r->result);
}

/// One client thread driving its analysts' sessions in a closed loop: each
/// session has one query in flight, and the thread collects them in turn.
void ClientThread(Loop* loop, std::vector<size_t> sessions, uint64_t seed,
                  ClientTally* tally) {
  std::vector<Rng> rngs;
  std::vector<long> op_index(sessions.size(), 0);
  for (size_t s : sessions) rngs.emplace_back(OrderSeed(seed) + 31 * s);
  auto may_start = [&] {
    if (loop->max_ops > 0) return loop->ops.fetch_add(1) < loop->max_ops;
    return Now() < loop->deadline;
  };
  std::vector<std::optional<Pending>> pending(sessions.size());
  for (size_t k = 0; k < sessions.size(); ++k) {
    if (!may_start()) continue;
    const bool traced = loop->trace && op_index[k]++ % 2 == 0;
    pending[k] = Start(loop, sessions[k], &rngs[k], traced, &tally->samples);
  }
  bool any = true;
  while (any) {
    any = false;
    for (size_t k = 0; k < sessions.size(); ++k) {
      if (!pending[k]) continue;
      Finish(loop, &*pending[k], tally);
      pending[k].reset();
      if (may_start()) {
        const bool traced = loop->trace && op_index[k]++ % 2 == 0;
        pending[k] =
            Start(loop, sessions[k], &rngs[k], traced, &tally->samples);
      }
    }
    for (const auto& p : pending) any = any || p.has_value();
  }
}

/// Runs the closed loop on `threads` client threads; returns the merged
/// tally, and when the loop started and its last query completed.
ClientTally RunLoop(Loop* loop, size_t threads, uint64_t seed, double* start_at,
                    double* end_at) {
  std::vector<ClientTally> tallies(threads);
  const double start = Now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    std::vector<size_t> mine;
    for (size_t s = t; s < kSessions; s += threads) mine.push_back(s);
    workers.emplace_back(ClientThread, loop, mine, seed, &tallies[t]);
  }
  for (auto& w : workers) w.join();
  ClientTally all;
  double last = start;
  for (ClientTally& t : tallies) {
    all.latencies.insert(all.latencies.end(), t.latencies.begin(),
                         t.latencies.end());
    all.done_at.insert(all.done_at.end(), t.done_at.begin(), t.done_at.end());
    all.samples.MergeFrom(t.samples);
    all.book.MergeFrom(t.book);
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.errors.insert(all.errors.end(), t.errors.begin(), t.errors.end());
    last = std::max(last, t.last_done);
  }
  *start_at = start;
  *end_at = last;
  return all;
}

}  // namespace

void RunTenantShortMix(const Args& args, Report* report) {
  const ParamPool params = MakeParams(args.seed);
  if (args.write_digests) {
    uint64_t digest = 0;
    Reference(args.seed, params, &digest, report);
    CheckDigest(args, digest, report);
    return;
  }
  const DatabaseOptions options = MixOptions();
  std::vector<double> setup_s;
  Mix mix;
  for (int k = 0; AnotherSetup(setup_s); ++k) {
    mix.Reset();
    const double t0 = Now();
    const costdb::Status st = SetUp(args.seed, options, kSessions, &mix);
    setup_s.push_back(Now() - t0);
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
  }
  // Client threads x engine threads per running query stay within nproc.
  const size_t threads = std::min<size_t>(Nproc(), kAdmissionSlots);
  std::vector<Session*> sessions;
  for (auto& s : mix.sessions) sessions.push_back(s.get());

  Trace trace;
  Loop warmup;
  warmup.mix = &mix;
  warmup.params = &params;
  warmup.suite = costdb::SsbQueries();
  warmup.trace_log = &trace;
  warmup.deadline = Now() + kWarmupSeconds;
  double start = 0.0, end_at = 0.0;
  (void)RunLoop(&warmup, threads, args.seed + 1, &start, &end_at);

  Loop loop;
  loop.mix = &mix;
  loop.params = &params;
  loop.suite = costdb::SsbQueries();
  loop.trace = args.trace;
  loop.trace_log = &trace;
  loop.max_ops = args.ops;
  const BillSnapshot begin = TakeBill(mix.db.get(), sessions);
  loop.deadline = Now() + args.seconds;
  ClientTally tally = RunLoop(&loop, threads, args.seed, &start, &end_at);
  const BillSnapshot end = TakeBill(mix.db.get(), sessions);
  const double peak_rss = PeakRssMiB();

  report->attempted += tally.attempted;
  report->failed += tally.failed;
  for (const auto& e : tally.errors) report->Fail(e);
  const double dollars = AccountDollars(report, mix.db.get(), begin, end,
                                        tally.samples, args.trace);
  ReportCommonConfig(report, args, options, kScale, threads,
                     options.exec_threads);
  report->Config("sessions", std::to_string(kSessions));
  report->Config("admission_slots", std::to_string(kAdmissionSlots));
  if (args.trace) {
    ReportLayers(report, tally.samples, trace, begin, end);
    ReportIngestLayers(report, IngestFigures{});
    WriteTrace(trace, args);
  } else {
    ReportEndToEnd(report, setup_s, tally.latencies, end_at - start,
                   WindowThroughput(tally.done_at, start, loop.deadline),
                   dollars,
                   peak_rss);
  }
  report->Count("optimizer.invalidations",
                static_cast<double>(end.plan_invalidations -
                                    begin.plan_invalidations));

  mix.Reset();
  uint64_t digest = 0;
  const auto ref = Reference(args.seed, params, &digest, report);
  std::vector<std::string> reasons;
  report->failed += tally.book.CountMismatchedOps(ref, &reasons);
  for (const auto& why : reasons) report->Fail(why);
  CheckDigest(args, digest, report);
}

}  // namespace perfbench
