#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {

/// Each workload sets itself up several times (the median is setup_s),
/// runs its closed loop for args.seconds (or args.ops operations), then
/// checks every result against a reference configuration built afterwards:
/// workers = 1, RAM-resident tables, calibration off. See README.md for why
/// each workload exists and which layers it loads.
void RunSsbPower(const Args& args, Report* report);
void RunTenantShortMix(const Args& args, Report* report);
void RunColdShardedIngest(const Args& args, Report* report);

/// Whether to time another set-up: at least three, and more while they
/// are cheap (under a second so far, at most 15), so setup_s is a median
/// of enough samples to be steady.
inline bool AnotherSetup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 1.0 && setup_s.size() < 15);
}

/// Engine threads of the reference configuration: fixed, so the committed
/// digests never depend on the host's core count.
constexpr size_t kReferenceThreads = 4;

/// Seeds of the generated inputs, all derived from the one --seed.
inline uint64_t DataSeed(uint64_t seed) { return seed * 7919 + 17; }
inline uint64_t SideDataSeed(uint64_t seed) { return seed * 7919 + 1000003; }
inline uint64_t OrderSeed(uint64_t seed) { return seed * 104729 + 5; }

/// The 12 suite queries in rounds, each round a fresh seeded permutation:
/// every round does the same work, so the median round time gives a
/// throughput that one slow stretch of a run does not move.
class SuiteRounds {
 public:
  SuiteRounds(uint64_t seed, size_t suite_size)
      : rng_(OrderSeed(seed)), order_(suite_size), pos_(suite_size) {}

  /// Index of the next query; starts a new round after the last one.
  size_t Next() {
    if (pos_ == order_.size()) {
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.Shuffle(&order_);
      pos_ = 0;
    }
    return order_[pos_++];
  }
  bool round_done() const { return pos_ == order_.size(); }
  size_t round_size() const { return order_.size(); }

 private:
  costdb::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// Adds the per-layer figures only the ingest workload produces (zero on
/// the others, which append nothing).
struct IngestFigures {
  double rows_per_s = 0.0;
  double space_amp = 0.0;
  double flushes = 0.0;
  double compactions = 0.0;
};
void ReportIngestLayers(Report* report, const IngestFigures& f);

/// Checks the reference digest against the committed one (when the digest
/// file lists this workload and seed), or prints it for the digest file.
void CheckDigest(const Args& args, uint64_t digest, Report* report);

}  // namespace perfbench
