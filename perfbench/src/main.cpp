// perfbench_driver: runs one workload of the quml end-to-end benchmark and
// prints its metrics; the last stdout line is the one-line JSON result.
//
//   perfbench_driver --workload wire_small|qft20_inproc|maxcut_portability
//                    --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// result line still prints, with "correct": false), 2 on usage errors or
// when the run could not complete (no result line).

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "backend/register_backends.hpp"
#include "common.hpp"
#include "util/build_info.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        [--out-dir DIR] [--commit SHA] [--source-digest HEX]\n"
               "workloads: wire_small qft20_inproc maxcut_portability\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // One OpenMP thread.  On a shared VM a team of nproc threads waits at each
  // of a job's barriers for its slowest member, so its time follows the
  // neighbours' load (QFT-20 read 80 to 170 ms from run to run on a 4-vCPU
  // VM); one thread measures the work.  libgomp reads the variable once, when
  // it loads, so the driver re-executes itself with it set.
  const char* omp_threads = std::getenv("OMP_NUM_THREADS");
  if (omp_threads == nullptr || std::strcmp(omp_threads, "1") != 0) {
    ::setenv("OMP_NUM_THREADS", "1", 1);
    ::execv("/proc/self/exe", argv);  // returns only on failure
    std::fprintf(stderr, "perfbench_driver: cannot re-execute with OMP_NUM_THREADS=1: %s\n",
                 std::strerror(errno));
    return 2;
  }

  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("--seed needs a non-negative integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) return usage("--seconds needs 1..600");
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace needs 0 or 1");
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--source-digest") {
      options.source_digest = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  // Follows bench/bench_common.hpp: numbers from an unoptimized library
  // would be meaningless, so a debug build refuses to measure.
  if (quml::build_type()[0] == 'd') {
    std::fprintf(stderr, "perfbench_driver: quml was compiled as a DEBUG build; rebuild Release\n");
    return 2;
  }
  if (::mkdir(options.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench_driver: cannot create %s: %s\n", options.out_dir.c_str(),
                 std::strerror(errno));
    return 2;
  }

  // Pin glibc's allocator.  Left dynamic, the first large free decides per
  // process whether every later multi-MiB buffer (QFT-20's 16 MiB state, its
  // sampler tables) comes from fresh pages or from a reused heap: a coin flip
  // worth ~30% of QFT-20 latency and 2x its resident set.  The thresholds are
  // pinned where the dynamic rule ends up in a long-running process (its
  // 32 MiB cap, trim at twice that), so large buffers are reused, not faulted
  // in again on every job.  One arena: which arena a fresh service's threads
  // land in otherwise moves peak RSS by a third from run to run.
  if (mallopt(M_MMAP_THRESHOLD, perfbench::kMallocMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, perfbench::kMallocTrimThreshold) != 1 ||
      mallopt(M_ARENA_MAX, perfbench::kMallocArenaMax) != 1) {
    std::fprintf(stderr, "perfbench_driver: mallopt failed\n");
    return 2;
  }

  try {
    quml::backend::register_builtin_backends();
    perfbench::Report report;
    if (options.workload == "wire_small")
      report = perfbench::run_wire_small(options);
    else if (options.workload == "qft20_inproc")
      report = perfbench::run_qft20_inproc(options);
    else if (options.workload == "maxcut_portability")
      report = perfbench::run_maxcut_portability(options);
    else
      return usage(("unknown workload " + options.workload).c_str());
    perfbench::emit(options, report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }
}
