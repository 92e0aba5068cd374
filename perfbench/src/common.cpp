#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "json/json.hpp"
#include "serve/client.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double process_cpu_ms() {
  timespec ts{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  for (auto& [n, v] : metrics)
    if (n == name) {
      v = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

bool Report::has(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.first == name) return true;
  return false;
}

void Report::check_failed(const std::string& what) {
  correct = false;
  ++failed;
  if (notes.size() < 64) notes.push_back("CHECK FAILED: " + what);
}

void Report::attempts_failed(std::size_t n, const std::string& what) {
  failed += n;
  if (notes.size() < 64) notes.push_back(std::to_string(n) + " attempt(s) failed: " + what);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"cpu_mean_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"serve.submit_rtt_us", "us"},
      {"serve.settle_wait_ms", "ms"},
      {"serve.frame.encode_us", "us"},
      {"serve.frame.decode_us", "us"},
      {"serve.store.append_us", "us"},
      {"serve.daemon.submit_us", "us"},
      {"loadgen.lag_p99_ms", "ms"},
      {"json.parse_us", "us"},
      {"json.dump_us", "us"},
      {"core.bundle_from_json_us", "us"},
      {"analysis.admit_us", "us"},
      {"svc.submit_us", "us"},
      {"svc.overhead_ms", "ms"},
      {"backend.lower_ms", "ms"},
      {"transpile.ms", "ms"},
      {"transpile.gates_out", "count"},
      {"sim.fuse_ms", "ms"},
      {"sim.fused_ops", "count"},
      {"sim.apply_ms", "ms"},
      {"sim.sample_ms", "ms"},
      {"sim.engine_ms", "ms"},
      {"sim.bytes_moved_gb", "GB"},
      {"svc.sweep_submit_ms", "ms"},
      {"backend.sweep_binding_ms", "ms"},
      {"svc.sweep_grid_ms", "ms"},
      {"svc.independent_grid_ms", "ms"},
      {"anneal.sample_ms", "ms"},
      {"anneal.ground_fraction", "ratio"},
      {"sim.mps_ms", "ms"},
      {"sim.mps_peak_bond", "count"},
      {"sched.choose_us", "us"},
      {"sched.estimate_ratio", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return names;
}

void emit(const RunOptions& options, const Report& report) {
  const auto& required = options.trace ? per_layer_metrics() : end_to_end_metrics();
  json::Value metrics = json::Value::object();
  for (const auto& [name, unit] : required) {
    const auto it = std::find_if(report.metrics.begin(), report.metrics.end(),
                                 [&](const auto& m) { return m.first == name; });
    if (it == report.metrics.end())
      throw std::runtime_error("workload " + options.workload + " did not report " + name);
    if (it->second.second != unit)
      throw std::runtime_error("metric " + name + " reported in " + it->second.second +
                               ", expected " + unit);
    json::Value m = json::Value::object();
    m.set("value", it->second.first);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }

  json::Value context = json::Value::object();
  context.set("workload", options.workload);
  context.set("seed", options.seed);
  context.set("seconds", options.seconds);
  context.set("trace", options.trace);
  context.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  context.set("omp_threads", static_cast<std::int64_t>(quml::max_threads()));
  context.set("quml_build_type", quml::build_type());
  context.set("malloc_mmap_threshold", static_cast<std::int64_t>(kMallocMmapThreshold));
  context.set("malloc_trim_threshold", static_cast<std::int64_t>(kMallocTrimThreshold));
  context.set("malloc_arena_max", static_cast<std::int64_t>(kMallocArenaMax));
  context.set("git_commit", options.commit);
  context.set("source_digest", options.source_digest);

  json::Value result = json::Value::object();
  result.set("correct", report.correct);
  result.set("attempted", static_cast<std::int64_t>(report.attempted));
  result.set("failed", static_cast<std::int64_t>(report.failed));
  result.set("metrics", metrics);

  std::printf("# context %s\n", json::dump(context).c_str());
  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  const double fail_ratio =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  std::printf("fail_ratio %s (%zu of %zu)\n", format_value(fail_ratio).c_str(), report.failed,
              report.attempted);
  for (const auto& [name, value] : report.metrics)
    std::printf("%s %s %s\n", name.c_str(), format_value(value.first).c_str(),
                value.second.c_str());

  json::Value record = json::Value::object();
  record.set("context", context);
  record.set("result", result);
  json::Value all = json::Value::object();
  for (const auto& [name, value] : report.metrics) {
    json::Value m = json::Value::object();
    m.set("value", value.first);
    m.set("unit", value.second);
    all.set(name, std::move(m));
  }
  record.set("all_metrics", all);
  json::Value notes = json::Value::array();
  for (const std::string& line : report.notes) notes.push_back(line);
  record.set("notes", notes);
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << json::dump_pretty(record) << "\n";
  if (!out) throw std::runtime_error("cannot write result record " + path);

  std::printf("%s\n", json::dump(result).c_str());
  std::fflush(stdout);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0xD6E8FEB86659FD93ull) ^ (index * 0x9E3779B97F4A7C15ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  // 53 bits: a seed must survive a JSON round trip (int64, non-negative).
  return (z ^ (z >> 31)) >> 11;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

core::JobBundle qft_job(unsigned width, std::int64_t shots, std::uint64_t seed,
                        const std::string& job_id) {
  return quml::serve::make_load_bundle(width, shots, seed, "gate.statevector_simulator", job_id);
}

std::string check_qft_uniform(const core::Counts& counts, unsigned width, std::int64_t shots) {
  if (counts.total() != shots)
    return "counts total " + std::to_string(counts.total()) + " != shots " +
           std::to_string(shots);
  const unsigned bits = width < 4 ? width : 4;
  std::vector<std::int64_t> bins(std::size_t{1} << bits, 0);
  for (const auto& [key, n] : counts.map()) {
    if (key.size() != width) return "count key '" + key + "' is not " + std::to_string(width) + " bits";
    // Keys are MSB-first: the low `bits` clbits are the last characters.
    std::size_t bin = 0;
    for (std::size_t i = key.size() - bits; i < key.size(); ++i) bin = bin * 2 + (key[i] == '1');
    bins[bin] += n;
  }
  const double chi2 = chi_square_uniform(bins);
  const double critical = chi_square_critical(static_cast<int>(bins.size()) - 1);
  if (chi2 > critical)
    return "chi-square " + std::to_string(chi2) + " over " + std::to_string(bins.size()) +
           " bins exceeds " + std::to_string(critical) + " (not uniform)";
  return "";
}

void ClosedLoopFigures::add(const std::vector<double>& segment_latency_ms,
                            const std::vector<double>& segment_cpu_ms,
                            std::size_t segment_completed, double segment_elapsed_s) {
  segment_p50_ms.push_back(median(segment_latency_ms));
  segment_cpu_p50_ms.push_back(median(segment_cpu_ms));
  segment_cpu_tail_ms.push_back(tail_percentile(segment_cpu_ms).value);
  for (const double ms : segment_cpu_ms) cpu_sum_ms += ms;
  requests += segment_cpu_ms.size();
  segment_tail_ms.push_back(tail_percentile(segment_latency_ms));
  segment_peak_rss_mb.push_back(peak_rss_mb());
  completed += segment_completed;
  elapsed_s += segment_elapsed_s;
}

void report_closed_loop(const ClosedLoopFigures& figures, const std::vector<double>& setup_s,
                        const std::string& noun, Report& report) {
  const double rate = static_cast<double>(figures.completed) / figures.elapsed_s;
  const Tail& first = figures.segment_tail_ms.front();
  report.note("medians over " + std::to_string(figures.segment_p50_ms.size()) +
              " segments; a segment's tail is its p" + std::to_string(first.percentile) + " of " +
              std::to_string(first.samples) + " " + noun + " (" + std::to_string(first.beyond) +
              " beyond) in the first segment");
  std::vector<double> tails;
  std::string segments = "segment latency median/tail (ms):";
  for (std::size_t i = 0; i < figures.segment_p50_ms.size(); ++i) {
    tails.push_back(figures.segment_tail_ms[i].value);
    segments.append(" ").append(std::to_string(figures.segment_p50_ms[i]));
    segments.append("/").append(std::to_string(tails.back()));
  }
  segments += "; segment CPU median/tail (ms):";
  for (std::size_t i = 0; i < figures.segment_cpu_p50_ms.size(); ++i) {
    segments.append(" ").append(std::to_string(figures.segment_cpu_p50_ms[i]));
    segments.append("/").append(std::to_string(figures.segment_cpu_tail_ms[i]));
  }
  segments += "; segment peak RSS (MiB):";
  for (const double rss : figures.segment_peak_rss_mb)
    segments.append(" ").append(std::to_string(rss));
  report.note(segments);
  report.set("setup_s", median(setup_s), "s");
  report.set("cpu_mean_ms", figures.cpu_sum_ms / static_cast<double>(figures.requests), "ms");
  report.set("cpu_p50_ms", median(figures.segment_cpu_p50_ms), "ms");
  report.set("cpu_tail_ms", median(figures.segment_cpu_tail_ms), "ms");
  report.set("latency_p50_ms", median(figures.segment_p50_ms), "ms");
  report.set("latency_tail_ms", median(tails), "ms");
  report.set("throughput_jobs_s", rate, "jobs/s");
  report.set("peak_rss_mb", median(figures.segment_peak_rss_mb), "MiB");
}

WireStack::WireStack(const std::string& out_dir, const std::string& tag) {
  const std::string stem = out_dir + "/" + tag + "-" + std::to_string(::getpid());
  journal_path_ = stem + ".journal";
  socket_path_ = stem + ".sock";
  std::remove(journal_path_.c_str());  // fresh journal: nothing to replay
  quml::serve::DaemonConfig config;
  config.store_path = journal_path_;
  config.tenants[kTenantA].weight = 2.0;
  config.tenants[kTenantB].weight = 1.0;
  daemon_ = std::make_unique<quml::serve::JobDaemon>(config);
  quml::serve::ServerConfig server_config;
  server_config.unix_path = socket_path_;
  server_ = std::make_unique<quml::serve::Server>(*daemon_, server_config);
  server_->start();
}

WireStack::~WireStack() {
  server_->stop();
  server_.reset();
  daemon_->stop();
  daemon_.reset();
  std::remove(journal_path_.c_str());
}

}  // namespace perfbench
