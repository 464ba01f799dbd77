#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/hash.h"

namespace costdb {

double DistributedSimulator::SkewFactor(int pipeline_id) const {
  // Deterministic per-(seed, pipeline) multiplier in
  // [1, 1 + skew_amplitude]: stragglers make real pipelines slower than
  // the closed-form models predict, never faster.
  uint64_t h = HashCombine(options_.seed,
                           HashInt64(static_cast<int64_t>(pipeline_id)));
  double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 1.0 + options_.skew_amplitude * unit;
}

Seconds DistributedSimulator::TrueDuration(const Pipeline& pipeline, int dop,
                                           const VolumeMap& truth) const {
  Seconds base = estimator_->PipelineDuration(pipeline, dop, truth);
  // Morsel quantization: at high DOP some workers idle on the last wave.
  double quant = 1.0 + options_.quantization * std::log2(std::max(1, dop));
  return base * SkewFactor(pipeline.id) * quant;
}

SimResult DistributedSimulator::Run(const Request& request,
                                    ResizePolicy* policy,
                                    CloudEnv* env) const {
  const PipelineGraph& graph = *request.graph;
  const VolumeMap& truth = *request.truth;
  SimResult result;

  // Static-plan reference schedule (believed volumes, planned DOPs) gives
  // each pipeline its planned start/finish — the budgets adaptive policies
  // correct against.
  PlanCostEstimate planned;
  {
    std::map<int, Seconds> durations;
    for (const auto& p : graph.pipelines) {
      auto it = request.planned_dops.find(p.id);
      int dop = it == request.planned_dops.end() ? 1 : it->second;
      durations[p.id] =
          estimator_->PipelineDuration(p, dop, *request.believed);
    }
    SchedulePipelines(graph, durations, request.planned_dops, &planned);
  }
  std::map<int, const PipelineEstimate*> planned_by_id;
  for (const auto& pe : planned.pipelines) planned_by_id[pe.pipeline_id] = &pe;

  PolicyContext ctx;
  ctx.graph = &graph;
  ctx.estimator = estimator_;
  ctx.believed = request.believed;
  ctx.truth = &truth;
  ctx.constraint = request.constraint;
  ctx.query_deadline =
      request.constraint.mode == UserConstraint::Mode::kMinCostUnderSla
          ? request.constraint.latency_sla
          : planned.latency;
  ctx.planned_makespan = planned.latency;

  const PolicyTraits traits = policy->traits();

  struct RunState {
    const Pipeline* pipeline = nullptr;
    enum class Phase { kWaiting, kMaterializing, kRunning, kFinished };
    Phase phase = Phase::kWaiting;
    int dop = 1;
    double progress = 0.0;
    Seconds start = 0.0;
    Seconds finish = 0.0;
    Seconds blocked_until = 0.0;  // resize/materialization stall
    Cluster cluster;
    bool cluster_released = false;
    int resizes = 0;
    Seconds observed_duration = 0.0;
  };
  std::map<int, RunState> runs;
  std::map<int, int> consumer;  // pipeline -> consumer pipeline
  for (const auto& p : graph.pipelines) {
    RunState rs;
    rs.pipeline = &p;
    runs[p.id] = rs;
    for (int dep : p.dependencies) consumer[dep] = p.id;
  }

  auto deps_done = [&](const Pipeline& p) {
    for (int dep : p.dependencies) {
      if (runs[dep].phase != RunState::Phase::kFinished) return false;
    }
    return true;
  };

  Seconds now = 0.0;
  size_t finished = 0;
  while (finished < graph.pipelines.size() && now < options_.max_sim_time) {
    ctx.now = now;
    // ---- start ready pipelines ----
    for (const auto& p : graph.pipelines) {
      RunState& rs = runs[p.id];
      if (rs.phase != RunState::Phase::kWaiting || !deps_done(p)) continue;
      const PipelineEstimate* pe = planned_by_id[p.id];
      PipelineRunView view;
      view.pipeline_id = p.id;
      view.planned_dop = pe->dop;
      view.dop = pe->dop;
      view.planned_finish = pe->finish;
      view.planned_duration = pe->duration;
      rs.dop = std::max(1, policy->OnPipelineStart(ctx, view));
      auto cluster = env->clusters()->Acquire(
          rs.dop, now, request.billing_label + ":p" +
                           std::to_string(p.id));
      if (!cluster.ok()) continue;  // try again next tick
      rs.cluster = *cluster;
      rs.start = now;
      Seconds ready_at = rs.cluster.acquired_at;
      // Stage materialization tax ("clean cuts"): such engines write and
      // re-read every exchanged data flow instead of streaming it, so the
      // tax applies to the full volume entering each exchange of this
      // pipeline (plus materialized breaker outputs it consumes).
      if (traits.materialization_secs_per_gib > 0.0) {
        double gib = 0.0;
        if (p.source_is_breaker) {
          auto it = truth.find(p.source);
          if (it != truth.end()) gib += it->second.out_bytes / kGiB;
        }
        for (const PhysicalPlan* op : p.operators) {
          if (op->kind != PhysicalPlan::Kind::kExchange) continue;
          auto it = truth.find(op->children[0].get());
          if (it != truth.end()) gib += it->second.out_bytes / kGiB;
        }
        Seconds mat = gib * traits.materialization_secs_per_gib /
                      std::max(1, rs.dop);
        ready_at += mat;
        result.materialization_seconds += mat;
      }
      rs.blocked_until = ready_at;
      rs.phase = RunState::Phase::kRunning;
    }

    // ---- advance running pipelines by one tick ----
    for (auto& [id, rs] : runs) {
      if (rs.phase != RunState::Phase::kRunning) continue;
      Seconds t0 = std::max(now, rs.blocked_until);
      Seconds t1 = now + options_.tick;
      if (t0 >= t1) continue;  // fully stalled this tick
      Seconds total = TrueDuration(*rs.pipeline, rs.dop, truth);
      rs.observed_duration = total;
      rs.progress += (t1 - t0) / std::max(total, 1e-9);
      if (rs.progress >= 1.0) {
        rs.progress = 1.0;
        rs.finish = t1;
        rs.phase = RunState::Phase::kFinished;
        ++finished;
      }
    }
    now += options_.tick;
    ctx.now = now;

    // ---- release clusters of finished pipelines whose consumer started
    // (co-termination billing: nodes are held while siblings straggle) ----
    for (auto& [id, rs] : runs) {
      if (rs.phase != RunState::Phase::kFinished || rs.cluster_released) {
        continue;
      }
      auto c = consumer.find(id);
      bool release = c == consumer.end() ||
                     runs[c->second].phase == RunState::Phase::kRunning ||
                     runs[c->second].phase == RunState::Phase::kFinished;
      if (release) {
        // Release fails only on double-release, which cluster_released
        // excludes; marking released only on success keeps the billing
        // ledger and the flag in agreement either way.
        rs.cluster_released = env->clusters()->Release(&rs.cluster, now).ok();
      }
    }

    // ---- policy ticks on running pipelines ----
    for (auto& [id, rs] : runs) {
      if (rs.phase != RunState::Phase::kRunning) continue;
      if (now < rs.blocked_until) continue;
      const PipelineEstimate* pe = planned_by_id[id];
      PipelineRunView view;
      view.pipeline_id = id;
      view.dop = rs.dop;
      view.planned_dop = pe->dop;
      view.started_at = rs.start;
      view.progress = rs.progress;
      view.planned_finish = pe->finish;
      view.planned_duration = pe->duration;
      view.observed_duration = rs.observed_duration;
      view.observed_remaining = (1.0 - rs.progress) * rs.observed_duration;
      int new_dop = std::clamp(policy->OnTick(ctx, view), 1, ctx.max_dop);
      if (new_dop != rs.dop && traits.mid_pipeline_resize) {
        auto ev = env->clusters()->Resize(&rs.cluster, new_dop, now);
        if (ev.ok()) {
          rs.dop = new_dop;
          rs.blocked_until = now + ev->latency;
          result.resize_overhead_seconds += ev->latency;
          ++rs.resizes;
          ++result.total_resizes;
        }
      }
    }
  }

  // Release anything still held (e.g. root pipeline).
  for (auto& [id, rs] : runs) {
    if (!rs.cluster_released && rs.cluster.node_count > 0) {
      rs.cluster_released = env->clusters()->Release(&rs.cluster, now).ok();
    }
  }

  result.latency = now;
  // Recompute exact latency as the max finish (the loop overshoots by up
  // to one tick).
  Seconds max_finish = 0.0;
  for (const auto& [id, rs] : runs) {
    max_finish = std::max(max_finish, rs.finish);
  }
  if (max_finish > 0.0) result.latency = max_finish;
  result.machine_seconds = env->billing()->total_machine_seconds();
  result.cost = env->billing()->TotalForPrefix(request.billing_label);
  if (request.constraint.mode == UserConstraint::Mode::kMinCostUnderSla) {
    result.sla_met = result.latency <= request.constraint.latency_sla * 1.001;
  } else {
    result.sla_met = result.cost <= request.constraint.budget * 1.001;
  }
  for (const auto& p : graph.pipelines) {
    const RunState& rs = runs[p.id];
    PipelineRunStats stats;
    stats.pipeline_id = p.id;
    stats.initial_dop = planned_by_id[p.id]->dop;
    stats.final_dop = rs.dop;
    stats.start = rs.start;
    stats.finish = rs.finish;
    stats.resizes = rs.resizes;
    stats.true_duration_at_planned_dop =
        TrueDuration(p, planned_by_id[p.id]->dop, truth);
    result.pipelines.push_back(stats);
  }
  return result;
}

}  // namespace costdb
