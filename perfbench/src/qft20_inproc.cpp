// qft20_inproc: a closed loop, one client, submitting QFT-20 to
// svc::ExecutionService on gate.statevector_simulator and waiting for each
// result before the next submit.  Lowering, transpile, fusion planning, the
// fused kernels and sampling do nearly all the work (the 16 MiB state is
// larger than the per-core cache); the serving stack is absent, so a
// serve-side change must not move this workload.

#include <memory>

#include "common.hpp"
#include "core/registry.hpp"
#include "probes.hpp"
#include "svc/execution_service.hpp"

namespace perfbench {

namespace {

namespace svc = quml::svc;

constexpr unsigned kWidth = 20;
constexpr std::int64_t kShots = 1024;
constexpr std::size_t kPool = 1024;  // seeded jobs generated in set-up, cycled

struct Setup {
  std::unique_ptr<svc::ExecutionService> service;
  std::vector<core::JobBundle> jobs;
};

core::ExecutionResult run_via_service(svc::ExecutionService& service,
                                      const core::JobBundle& bundle) {
  const svc::JobId id = service.submit(bundle);
  const svc::JobHandle handle = service.handle(id);
  core::ExecutionResult result = handle.result();
  service.forget(id);
  return result;
}

Setup set_up(const RunOptions& options, Report& report) {
  Setup s;
  s.service = std::make_unique<svc::ExecutionService>();
  s.jobs.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i)
    s.jobs.push_back(qft_job(kWidth, kShots, derive_seed(options.seed, 1, i),
                             "qft20-" + std::to_string(i)));
  // Reference result: the engine's run() called directly.  The warm-up jobs
  // (pool spawn, OpenMP team start, first-touch of the state) must match it.
  const core::ExecutionResult reference =
      core::BackendRegistry::instance().create("gate.statevector_simulator")->run(s.jobs[0]);
  for (int w = 0; w < 2; ++w) {
    const core::ExecutionResult warm = run_via_service(*s.service, s.jobs[0]);
    if (warm.counts.map() != reference.counts.map())
      report.check_failed("warm-up result differs from the direct backend run");
  }
  return s;
}

struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  // process CPU time per untraced request
  std::vector<double> traced_latency_ms;
  std::vector<double> gap_ms;  // previous result -> next submit
  double elapsed_s = 0.0;
};

/// Closed loop for `seconds`; with a tracer, every other job is traced.
LoopStats closed_loop(Setup& s, double seconds, std::size_t first_job, Tracer* tracer,
                      Report& report) {
  LoopStats out;
  const Clock::time_point start = Clock::now();
  Clock::time_point previous = start;
  for (std::size_t i = first_job;; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (seconds_between(start, t0) >= seconds) break;
    if (i > first_job) out.gap_ms.push_back(ms_between(previous, t0));
    const core::JobBundle& bundle = s.jobs[i % kPool];
    const bool traced = tracer != nullptr && i % 2 == 1;
    ++report.attempted;
    const double cpu0 = process_cpu_ms();
    try {
      core::ExecutionResult result;
      if (traced) {
        auto root = tracer->span("job", i);
        svc::JobId id = 0;
        {
          auto sp = tracer->span("svc.submit", i);
          id = s.service->submit(bundle);
        }
        {
          auto sp = tracer->span("svc.wait", i);
          result = s.service->handle(id).result();
        }
        s.service->forget(id);
      } else {
        result = run_via_service(*s.service, bundle);
      }
      const Clock::time_point t1 = Clock::now();
      if (!traced) out.cpu_ms.push_back(process_cpu_ms() - cpu0);
      (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms_between(t0, t1));
      const std::string bad = check_qft_uniform(result.counts, kWidth, kShots);
      if (!bad.empty()) report.check_failed(bundle.job_id + ": " + bad);
    } catch (const std::exception& e) {
      report.check_failed(bundle.job_id + ": " + e.what());
    }
    previous = Clock::now();
  }
  out.elapsed_s = seconds_between(start, Clock::now());
  return out;
}

}  // namespace

Report run_qft20_inproc(const RunOptions& options) {
  Report report;
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};  // tear the previous set-up down before timing the next
    const Clock::time_point t0 = rep == 0 ? process_start() : Clock::now();
    s = set_up(options, report);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.note("closed loop, 1 client, QFT-20 x 1024 shots on gate.statevector_simulator");

  if (!options.trace) {
    ClosedLoopFigures figures;
    std::size_t next = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
      if (seg > 0) {  // a fresh service, warmed by one unmeasured job
        s.service = std::make_unique<svc::ExecutionService>();
        const std::string bad =
            check_qft_uniform(run_via_service(*s.service, s.jobs[0]).counts, kWidth, kShots);
        if (!bad.empty()) report.check_failed("segment warm-up: " + bad);
      }
      reset_peak_rss();
      const LoopStats loop = closed_loop(s, options.seconds / kSegments, next, nullptr, report);
      next += loop.latency_ms.size();
      figures.add(loop.latency_ms, loop.cpu_ms, loop.latency_ms.size(), loop.elapsed_s);
    }
    report_closed_loop(figures, setup_s, "jobs", report);
    return report;
  }

  Tracer tracer;
  const LoopStats loop = closed_loop(s, options.seconds * 0.5, 0, &tracer, report);
  const double untraced_p50 = median(loop.latency_ms);
  report.set("trace.overhead", median(loop.traced_latency_ms) / untraced_p50, "ratio");
  report.set("loadgen.lag_p99_ms", tail_percentile(loop.gap_ms, loop.gap_ms.size() / 100).value,
             "ms");

  // The gate pipeline stage by stage beside the untraced service path: the
  // stages' share of the service's wall time is what tracing can attribute.
  std::vector<double> service_ms;
  for (std::size_t i = 0; i < 5; ++i) {
    const core::JobBundle& bundle = s.jobs[i];
    const Clock::time_point t0 = Clock::now();
    const core::ExecutionResult via_svc = run_via_service(*s.service, bundle);
    service_ms.push_back(ms_between(t0, Clock::now()));
    const GateReplay replay = replay_gate(tracer, 1000 + i, bundle);
    if (replay.counts.map() != via_svc.counts.map())
      report.check_failed(bundle.job_id + ": staged replay differs from the service result");
  }
  const double covered = median(covered_ms(tracer.spans(), "pipeline"));
  report.set("trace.coverage", covered / median(service_ms), "ratio");
  report.note("trace.coverage: gate stages " + std::to_string(covered) + " ms of service wall " +
              std::to_string(median(service_ms)) + " ms");

  ProbeInputs inputs;
  inputs.jobs = {s.jobs[0], s.jobs[1], s.jobs[2]};
  inputs.dense_jobs = inputs.jobs;
  inputs.mps_job = s.jobs[0];
  inputs.sweep_bundle = s.jobs[0];
  inputs.sweep_bindings.assign(4, {});
  inputs.sweep_repeats = 2;
  inputs.anneal_instance = make_maxcut_instance(options.seed, 0);
  inputs.anneal_params = maxcut_anneal_params();
  s = Setup{};
  run_layer_probes(options, inputs, tracer, report);
  tracer.write_ndjson(options.out_dir + "/spans-qft20_inproc.ndjson");
  return report;
}

}  // namespace perfbench
