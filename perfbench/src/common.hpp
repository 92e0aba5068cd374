#pragma once
// Shared pieces of the three workloads: options, the report every run
// prints, seeded job inputs, output checks, and the daemon + socket stack.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bundle.hpp"
#include "core/result.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "algolib/graph.hpp"
#include "anneal/sampler.hpp"
#include "sim/circuit.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = quml::core;
namespace sim = quml::sim;
namespace json = quml::json;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";  ///< journals, sockets, spans, records
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Everything one invocation prints.  `metrics` keeps insertion order for the
/// human-readable lines; the final JSON line carries the same values.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;  ///< printed as "# ..." lines before the result

  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed output check: counts it and marks the run incorrect.
  void check_failed(const std::string& what);
  /// Records `n` attempts that failed without a wrong output (transport
  /// error, SHED, REJECTED, FAILED, timeout): they count toward fail_ratio.
  void attempts_failed(std::size_t n, const std::string& what);
};

/// End-to-end metric names (every untraced run prints all of them) and the
/// per-layer names (every traced run prints all of them), with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Prints the context stamp, the notes, one "metric value unit" line per
/// metric and, last, the one-line JSON result; writes the same record to
/// `<out_dir>/<workload>-seed<seed>-trace<t>.json`.  Throws when a metric the
/// mode requires is missing.
void emit(const RunOptions& options, const Report& report);

/// splitmix64 of (seed, stream, index): independent per-purpose seed streams,
/// 53 bits wide so a seed survives the JSON wire format.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process start, captured before main (static initialization).
Clock::time_point process_start();

/// CPU time (user + system, all threads) the process has used so far, ms.
/// Unlike wall time it leaves out time spent waiting for a CPU, so on a
/// shared host it tracks the work done rather than the neighbours' load.
double process_cpu_ms();

/// Peak resident set (VmHWM) in MiB since process start or the last
/// reset_peak_rss().
double peak_rss_mb();
/// Resets VmHWM to the current resident set (/proc/self/clear_refs).
void reset_peak_rss();

/// QFT-`width` over |0...0> with trailing measurement on the dense engine:
/// serve::make_load_bundle, the daemon's canned job.
core::JobBundle qft_job(unsigned width, std::int64_t shots, std::uint64_t seed,
                        const std::string& job_id);

/// QFT on |0...0> yields the uniform distribution: checks total counts ==
/// shots and a chi-square test (z = 6) over min(2^width, 16) bins of the
/// outcome's low bits.  Returns "" when the counts pass, else the reason.
std::string check_qft_uniform(const core::Counts& counts, unsigned width, std::int64_t shots);

/// glibc allocator settings the driver pins before any workload runs (see
/// main.cpp); stamped into every record.
constexpr int kMallocMmapThreshold = 32 << 20;
constexpr int kMallocTrimThreshold = 64 << 20;
constexpr int kMallocArenaMax = 1;

/// Setup repetitions per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;

/// Closed loops run in this many segments, each on a fresh
/// svc::ExecutionService (new worker threads), and report medians over the
/// segments, so a burst of host noise lands in one segment, not the run.
constexpr int kSegments = 6;

/// End-to-end figures of a segmented closed loop: cpu_mean_ms the mean
/// per-request CPU time over the whole run; cpu_p50_ms, cpu_tail_ms,
/// latency_p50_ms and latency_tail_ms medians over the segments of each
/// segment's median and tail of per-request CPU time and latency (a pooled
/// tail would be the slowest phase of the host, not the program's);
/// throughput completed work over measured time; and peak_rss_mb the median
/// of the segments' peaks.
struct ClosedLoopFigures {
  std::vector<double> segment_p50_ms;
  std::vector<double> segment_cpu_p50_ms;
  std::vector<double> segment_cpu_tail_ms;
  double cpu_sum_ms = 0.0;  ///< per-request CPU time, summed over all segments
  std::size_t requests = 0;
  std::vector<Tail> segment_tail_ms;
  std::vector<double> segment_peak_rss_mb;
  std::size_t completed = 0;  ///< jobs plus sweep bindings
  double elapsed_s = 0.0;
  /// Call right after the segment ends; its peak RSS is read here.
  void add(const std::vector<double>& segment_latency_ms,
           const std::vector<double>& segment_cpu_ms, std::size_t segment_completed,
           double segment_elapsed_s);
};
void report_closed_loop(const ClosedLoopFigures& figures, const std::vector<double>& setup_s,
                        const std::string& noun, Report& report);

/// A live JobDaemon + Server on a unix socket with a fresh journal under
/// `out_dir`, in the shipped default configuration (2 executors, 1 service
/// worker per engine) plus the two benchmark tenants weighted 2:1.
class WireStack {
 public:
  WireStack(const std::string& out_dir, const std::string& tag);
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  quml::serve::JobDaemon& daemon() { return *daemon_; }
  const std::string& socket_path() const { return socket_path_; }

  static constexpr const char* kTenantA = "tenant-a";  // weight 2
  static constexpr const char* kTenantB = "tenant-b";  // weight 1

 private:
  std::string journal_path_;
  std::string socket_path_;
  std::unique_ptr<quml::serve::JobDaemon> daemon_;
  std::unique_ptr<quml::serve::Server> server_;
};

/// One seeded Max-Cut instance of the portability workload: a 16-node
/// random cubic graph, its Ising model, and the exact optimum (computed with
/// anneal::exact_ground_states during set-up).
struct MaxcutInstance {
  std::uint64_t seed = 0;
  quml::algolib::Graph graph;
  quml::anneal::IsingModel model;
  double ground_energy = 0.0;
  double max_cut = 0.0;
};
MaxcutInstance make_maxcut_instance(std::uint64_t seed, std::size_t index);
/// Annealer settings of the portability workload (reads, sweeps; seed unset).
quml::anneal::AnnealParams maxcut_anneal_params();

/// Workload entry points (one per workload name).
Report run_wire_small(const RunOptions& options);
Report run_qft20_inproc(const RunOptions& options);
Report run_maxcut_portability(const RunOptions& options);

}  // namespace perfbench
