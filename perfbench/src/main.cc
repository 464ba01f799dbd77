// perfbench: runs one workload of the repository benchmark and
// prints its metrics as the last line of standard output.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--ops <n>] [--write-digests] [--commit <id>]
//                    [--src-digest <hash>]
//
// Normally started through perfbench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {

void ReportIngestLayers(Report* report, const IngestFigures& f) {
  report->Add("storage.flushes", f.flushes, "count");
  report->Add("storage.compactions", f.compactions, "count");
  report->Add("storage.ingest_rows_per_s", f.rows_per_s, "rows/s");
  report->Add("storage.space_amp", f.space_amp, "1");
}

void CheckDigest(const Args& args, uint64_t digest, Report* report) {
  if (args.write_digests) {
    std::printf("\"%s/%llu\": \"%s\"\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                Hex(digest).c_str());
    return;
  }
  const std::string committed = CommittedDigest(args.workload, args.seed);
  report->Config("committed_digest_checked", committed.empty() ? "false"
                                                               : "true");
  if (!committed.empty() && committed != Hex(digest)) {
    report->Fail("reference digest " + Hex(digest) +
                 " differs from the committed " + committed);
  }
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_run --workload "
               "{ssb_power|tenant_short_mix|cold_sharded_ingest} --seed N "
               "--seconds S --trace {0|1} [--ops N] [--write-digests]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--write-digests") {
      args.write_digests = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage("missing value");
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (flag == "--ops") {
      args.ops = std::atol(v);
    } else if (flag == "--commit") {
      args.commit = v;
    } else if (flag == "--src-digest") {
      args.src_digest = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(perfbench::kWorkDir + "/traces", ec);
  perfbench::Report report;
  if (args.workload == "ssb_power") {
    perfbench::RunSsbPower(args, &report);
  } else if (args.workload == "tenant_short_mix") {
    perfbench::RunTenantShortMix(args, &report);
  } else if (args.workload == "cold_sharded_ingest") {
    perfbench::RunColdShardedIngest(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.write_digests) return report.correct() ? 0 : 1;
  report.Print();
  return 0;
}
