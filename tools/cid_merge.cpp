// cid_merge — merge sweep manifest shards/partials into one canonical file.
//
//   cid_merge --out merged.mani shard0.mani shard1.mani [shard2.mani ...]
//
// Inputs must all belong to the same sweep grid (checked by the grid
// fingerprint each manifest header carries — mixing grids is a hard
// error). Identical duplicate records collapse silently; conflicting
// duplicates abort unless --keep-first resolves them (earlier argument
// wins). Up to --max-corrupt unreadable inputs are skipped loudly;
// corruption INSIDE a readable input (CRC-bad record slots, unreadable
// rotated segments) is skipped record-by-record by the tolerant loader.
//
// The output is canonical: a single v2 segment with records sorted by
// (cell, trial), staged through "<out>.tmp" + rename + directory fsync.
// Merging the same trials under any sharding or input order produces
// byte-identical files — and matches a threads=1 unsharded sweep's
// manifest exactly (tests/test_merge.cpp).
//
// Exit codes: 0 success; 1 merge/write error; 2 usage error; 3 the merge
// succeeded but --expect-complete found trials missing.

#include <cstdio>
#include <string>
#include <vector>

#include "persist/manifest.hpp"
#include "util/parse_number.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --out PATH IN1 [IN2 ...]\n"
      "  --out PATH         merged manifest to write (required)\n"
      "  --max-corrupt N    unreadable inputs to tolerate (default 1)\n"
      "  --keep-first       resolve conflicting duplicate records by\n"
      "                     keeping the earlier input's record\n"
      "  --expect-complete  exit 3 unless every (cell, trial) of the grid\n"
      "                     is present in the merge\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  cid::persist::MergeOptions options;
  bool expect_complete = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = need_value("--out");
    } else if (arg == "--max-corrupt") {
      try {
        const int n = cid::parse_number<int>("--max-corrupt",
                                             need_value("--max-corrupt"));
        if (n < 0) throw std::invalid_argument("negative");
        options.max_corrupt_inputs = static_cast<std::size_t>(n);
      } catch (const std::exception&) {
        std::fprintf(stderr, "%s: --max-corrupt needs an integer >= 0\n",
                     argv[0]);
        return 2;
      }
    } else if (arg == "--keep-first") {
      options.keep_first_on_conflict = true;
    } else if (arg == "--expect-complete") {
      expect_complete = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage(argv[0]);

  try {
    const cid::persist::MergeReport report =
        cid::persist::merge_manifests(inputs, options);
    const std::uint64_t bytes =
        cid::persist::write_manifest_canonical(out_path, report);

    const std::size_t total =
        static_cast<std::size_t>(report.cells) * report.trials_per_cell;
    std::printf("merged %zu input(s) -> %s\n", inputs.size(),
                out_path.c_str());
    std::printf(
        "  grid fingerprint %016llx, %u cell(s) x %u trial(s)\n",
        static_cast<unsigned long long>(report.fingerprint), report.cells,
        report.trials_per_cell);
    std::printf("  %zu / %zu trial record(s), %llu bytes written\n",
                report.completed.size(), total,
                static_cast<unsigned long long>(bytes));
    if (report.duplicate_records > 0) {
      std::printf("  %zu identical duplicate(s) collapsed\n",
                  report.duplicate_records);
    }
    if (report.conflicts > 0) {
      std::printf("  %zu conflicting duplicate(s) resolved keep-first\n",
                  report.conflicts);
    }
    if (!report.corrupt_inputs.empty() || report.corrupt_records > 0 ||
        !report.corrupt_segments.empty()) {
      std::printf(
          "  CORRUPTION tolerated: %zu unreadable input(s), %zu corrupt "
          "record slot(s), %zu unreadable segment(s)\n",
          report.corrupt_inputs.size(), report.corrupt_records,
          report.corrupt_segments.size());
    }
    if (expect_complete && report.completed.size() != total) {
      std::fprintf(stderr,
                   "%s: merge is INCOMPLETE: %zu of %zu trial(s) missing\n",
                   argv[0], total - report.completed.size(), total);
      return 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}
