// maxcut_portability: the paper's section-5 experiment at scale.  A closed
// loop over seeded Max-Cut instances; each instance is one typed problem run
// three ways through svc::ExecutionService, one after another, and is
// solved only when all three pass their checks:
//   * QAOA p=1 on a 16-node random cubic graph as a 4x4 (gamma, beta)
//     angle-grid submit_sweep (bind once, run many), engine "auto";
//   * the Ising form of the same graph on anneal.neal_simulator;
//   * QAOA p=1 on a 40-node ring, engine "auto", which only
//     gate.mps_simulator can hold.
// Plan-cached sweep bindings, the annealer, MPS, and sched auto-routing on
// every job: the execution layers the other two workloads leave out.  The
// three run in turn rather than in flight together: three concurrent jobs
// would measure how the host shares its cores among them (and their caches),
// one at a time measures the layers.

#include <algorithm>
#include <cmath>
#include <memory>

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "algolib/stateprep.hpp"
#include "anneal/sampler.hpp"
#include "backend/lowering.hpp"
#include "common.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "probes.hpp"
#include "svc/execution_service.hpp"
#include "transpile/transpiler.hpp"

namespace perfbench {

namespace {

namespace svc = quml::svc;
namespace algolib = quml::algolib;

constexpr int kNodes = 16;
constexpr int kWideNodes = 40;
constexpr std::int64_t kShots = 256;
constexpr int kGridSide = 4;
constexpr std::size_t kInstances = 32;  // generated in set-up, cycled
constexpr std::int64_t kAnnealReads = 256;
constexpr std::int64_t kAnnealSweeps = 256;
// The p=1 QAOA guarantee on 3-regular graphs (Farhi et al.): the expected
// cut at the best angles is at least this share of the maximum cut.  The
// checks compare a sampled mean, so they allow kSigmas standard errors: a
// bipartite instance sits exactly at the bound in expectation.
constexpr double kQaoaBound = 0.6924;
constexpr double kSigmas = 4.0;
constexpr const char* kMps = "gate.mps_simulator";

struct Instance {
  MaxcutInstance problem;
  core::JobBundle qaoa;    // parameterized over (gamma, beta)
  core::JobBundle ising;   // anneal.neal_simulator
  core::JobBundle wide;    // 40-node ring, bound angles
};

core::Context gate_context(std::uint64_t seed) {
  core::Context ctx;
  ctx.exec.engine = "auto";
  ctx.exec.samples = kShots;
  ctx.exec.seed = seed;
  return ctx;
}

core::JobBundle qaoa_bundle(const algolib::Graph& graph, std::uint64_t seed,
                            const std::string& id) {
  const auto reg = algolib::make_ising_register("cut", static_cast<unsigned>(graph.n));
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::prep_uniform_descriptor(reg));
  core::OperatorDescriptor cost = algolib::cost_phase_descriptor(reg, graph, 0.0);
  cost.params.set("gamma", json::Value("$gamma"));
  core::OperatorDescriptor mixer = algolib::mixer_descriptor(reg, 0.0);
  mixer.params.set("beta", json::Value("$beta"));
  seq.ops.push_back(std::move(cost));
  seq.ops.push_back(std::move(mixer));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  return core::JobBundle::package(core::RegisterSet(std::vector<core::QuantumDataType>{reg}),
                                  std::move(seq), gate_context(seed), id, {"gamma", "beta"});
}

core::JobBundle ising_bundle(const algolib::Graph& graph, std::uint64_t seed,
                             const std::string& id) {
  const auto reg = algolib::make_ising_register("s", static_cast<unsigned>(graph.n));
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::maxcut_ising_descriptor(reg, graph));
  core::Context ctx;
  ctx.exec.engine = "anneal.neal_simulator";
  ctx.exec.seed = seed;
  core::AnnealPolicy policy;
  policy.num_reads = kAnnealReads;
  policy.num_sweeps = kAnnealSweeps;
  ctx.anneal = policy;
  return core::JobBundle::package(core::RegisterSet(std::vector<core::QuantumDataType>{reg}),
                                  std::move(seq), ctx, id);
}

core::JobBundle wide_bundle(std::uint64_t seed, const std::string& id) {
  const algolib::Graph ring = algolib::Graph::cycle(kWideNodes);
  const auto reg = algolib::make_ising_register("ring", kWideNodes);
  core::OperatorSequence seq = algolib::qaoa_sequence(reg, ring, algolib::ring_p1_angles());
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  return core::JobBundle::package(core::RegisterSet(std::vector<core::QuantumDataType>{reg}),
                                  std::move(seq), gate_context(seed), id);
}

/// gamma = i*pi/10, beta = j*pi/16 for i, j = 1..4: the grid holds
/// (0.628, pi/8), next to the p=1 optimum on 3-regular graphs
/// (gamma ~ 0.616, beta = pi/8).
std::vector<std::vector<double>> angle_grid() {
  constexpr double kPi = 3.14159265358979323846;
  std::vector<std::vector<double>> grid;
  for (int i = 1; i <= kGridSide; ++i)
    for (int j = 1; j <= kGridSide; ++j) grid.push_back({kPi * i / 10.0, kPi * j / 16.0});
  return grid;
}

/// Sampled mean cut and its standard error.
struct CutEstimate {
  double mean = 0.0;
  double stderr_ = 0.0;
  /// Consistent with mean >= bound * max_cut at kSigmas standard errors.
  bool meets(double bound, double max_cut) const {
    return mean + kSigmas * stderr_ >= bound * max_cut;
  }
};

CutEstimate estimate_cut(const algolib::Graph& graph, const core::Counts& counts) {
  double sum = 0.0, sum_sq = 0.0;
  const double n = static_cast<double>(counts.total());
  for (const auto& [bits, count] : counts.map()) {
    const double cut = graph.cut_value_bits(bits);
    sum += cut * static_cast<double>(count);
    sum_sq += cut * cut * static_cast<double>(count);
  }
  CutEstimate e;
  e.mean = sum / n;
  const double variance = std::max(0.0, sum_sq / n - e.mean * e.mean);
  e.stderr_ = std::sqrt(variance / n);
  return e;
}

struct Setup {
  std::unique_ptr<svc::ExecutionService> service;
  std::vector<Instance> instances;
  std::vector<std::vector<double>> grid;
};

/// One instance three ways; returns the jobs + bindings completed, checks
/// every output.  `best_binding` receives the best grid point's index.
std::size_t run_instance(Setup& s, const Instance& inst, Report& report, Tracer* tracer,
                         std::uint64_t job, std::size_t* best_binding = nullptr) {
  const std::string& id = inst.qaoa.job_id;
  std::size_t completed = 0;
  try {
    auto root = Tracer::span_if(tracer, "instance", job);
    const auto run_job = [&](const core::JobBundle& bundle, std::string& engine) {
      svc::JobId job_id = 0;
      {
        auto sp = Tracer::span_if(tracer, "svc.submit", job);
        job_id = s.service->submit(bundle);
      }
      const svc::JobHandle handle = s.service->handle(job_id);
      core::ExecutionResult result;
      {
        auto sp = Tracer::span_if(tracer, "svc.wait", job);
        result = handle.result();
      }
      engine = handle.engine();
      s.service->forget(job_id);
      return result;
    };
    std::string ising_engine, wide_engine;
    const core::ExecutionResult ising_result = run_job(inst.ising, ising_engine);
    const core::ExecutionResult wide_result = run_job(inst.wide, wide_engine);
    svc::SweepHandle sweep;
    {
      auto sp = Tracer::span_if(tracer, "svc.sweep_submit", job);
      sweep = s.service->submit_sweep(inst.qaoa, s.grid);
    }
    std::vector<core::ExecutionResult> bindings;
    {
      auto sp = Tracer::span_if(tracer, "svc.wait", job);
      sweep.wait();
      for (std::size_t i = 0; i < s.grid.size(); ++i) bindings.push_back(sweep.result(i));
    }
    root.close();
    completed = bindings.size() + 2;

    // QAOA: the best grid point's expected cut meets the p=1 bound.
    CutEstimate best;
    best.mean = -1.0;
    for (std::size_t i = 0; i < bindings.size(); ++i) {
      if (bindings[i].counts.total() != kShots) report.check_failed(id + ": sweep shots");
      const CutEstimate cut = estimate_cut(inst.problem.graph, bindings[i].counts);
      if (cut.mean > best.mean) {
        best = cut;
        if (best_binding != nullptr) *best_binding = i;
      }
    }
    if (!best.meets(kQaoaBound, inst.problem.max_cut))
      report.check_failed(id + ": QAOA approximation ratio " +
                          std::to_string(best.mean / inst.problem.max_cut) + " < 0.6924");
    // Annealer: its best read is the exact optimum.
    double anneal_best = -1.0;
    for (const auto& [bits, n] : ising_result.counts.map())
      anneal_best = std::max(anneal_best, inst.problem.graph.cut_value_bits(bits));
    if (anneal_best != inst.problem.max_cut)
      report.check_failed(id + ": annealer best cut " + std::to_string(anneal_best) +
                          " != exact " + std::to_string(inst.problem.max_cut));
    // Wide instance: routed to MPS, full shots, and QAOA-quality cuts.
    if (wide_engine != kMps)
      report.check_failed(id + ": wide instance routed to " + wide_engine + ", not " + kMps);
    if (wide_result.counts.total() != kShots) report.check_failed(id + ": wide shots");
    const CutEstimate ring = estimate_cut(algolib::Graph::cycle(kWideNodes), wide_result.counts);
    if (!ring.meets(kQaoaBound, kWideNodes))
      report.check_failed(id + ": wide ring ratio " + std::to_string(ring.mean / kWideNodes));
  } catch (const std::exception& e) {
    report.check_failed(id + ": " + e.what());
  }
  return completed;
}

Setup set_up(const RunOptions& options, Report& report) {
  Setup s;
  s.service = std::make_unique<svc::ExecutionService>();
  s.grid = angle_grid();
  for (std::size_t i = 0; i < kInstances; ++i) {
    Instance inst;
    inst.problem = make_maxcut_instance(options.seed, i);
    const std::string id = "maxcut-" + std::to_string(i);
    inst.qaoa = qaoa_bundle(inst.problem.graph, derive_seed(options.seed, 3, i), id + "-qaoa");
    inst.ising = ising_bundle(inst.problem.graph, derive_seed(options.seed, 4, i), id + "-ising");
    inst.wide = wide_bundle(derive_seed(options.seed, 5, i), id + "-wide");
    s.instances.push_back(std::move(inst));
  }
  // Warm-up: one instance end to end (spawns the three engine pools).
  Report warm;
  run_instance(s, s.instances[0], warm, nullptr, 0);
  if (!warm.correct) report.check_failed("warm-up instance failed its checks");
  return s;
}

struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  // process CPU time per untraced request
  std::vector<double> traced_latency_ms;
  std::vector<double> gap_ms;
  std::size_t completed = 0;
  double elapsed_s = 0.0;
};

LoopStats closed_loop(Setup& s, double seconds, std::size_t first, Tracer* tracer,
                      Report& report) {
  LoopStats out;
  const Clock::time_point start = Clock::now();
  Clock::time_point previous = start;
  for (std::size_t i = first;; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (seconds_between(start, t0) >= seconds) break;
    if (i > first) out.gap_ms.push_back(ms_between(previous, t0));
    const bool traced = tracer != nullptr && i % 2 == 1;
    ++report.attempted;
    const std::size_t failed_before = report.failed;
    const double cpu0 = process_cpu_ms();
    const std::size_t done = run_instance(s, s.instances[i % kInstances], report,
                                          traced ? tracer : nullptr, i);
    const Clock::time_point t1 = Clock::now();
    if (!traced) out.cpu_ms.push_back(process_cpu_ms() - cpu0);
    // An instance counts once in `failed`, however many of its checks failed.
    if (report.failed > failed_before) report.failed = failed_before + 1;
    (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms_between(t0, t1));
    out.completed += done;
    previous = Clock::now();
  }
  out.elapsed_s = seconds_between(start, Clock::now());
  return out;
}

}  // namespace

quml::anneal::AnnealParams maxcut_anneal_params() {
  quml::anneal::AnnealParams params;
  params.num_reads = kAnnealReads;
  params.num_sweeps = kAnnealSweeps;
  return params;
}

MaxcutInstance make_maxcut_instance(std::uint64_t seed, std::size_t index) {
  MaxcutInstance inst;
  inst.seed = derive_seed(seed, 2, index);
  inst.graph = algolib::Graph::random_cubic(kNodes, inst.seed);
  const auto reg = algolib::make_ising_register("s", kNodes);
  inst.model = algolib::ising_model_from_descriptor(
      algolib::maxcut_ising_descriptor(reg, inst.graph), kNodes);
  inst.ground_energy = quml::anneal::exact_ground_states(inst.model).lowest().energy;
  inst.max_cut = algolib::cut_from_ising_energy(inst.graph, inst.ground_energy);
  return inst;
}

Report run_maxcut_portability(const RunOptions& options) {
  Report report;
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};
    const Clock::time_point t0 = rep == 0 ? process_start() : Clock::now();
    s = set_up(options, report);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.note("closed loop, 1 client; per instance: 16-node cubic QAOA 4x4 sweep (auto), "
              "Ising on anneal.neal_simulator, 40-node ring QAOA (auto -> MPS)");

  if (!options.trace) {
    ClosedLoopFigures figures;
    std::size_t next = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
      if (seg > 0) {  // a fresh service, warmed by one unmeasured instance
        s.service = std::make_unique<svc::ExecutionService>();
        Report warm;
        run_instance(s, s.instances[0], warm, nullptr, 0);
        if (!warm.correct) report.check_failed("segment warm-up instance failed its checks");
      }
      reset_peak_rss();
      const LoopStats loop = closed_loop(s, options.seconds / kSegments, next, nullptr, report);
      next += loop.latency_ms.size();
      figures.add(loop.latency_ms, loop.cpu_ms, loop.completed, loop.elapsed_s);
    }
    report_closed_loop(figures, setup_s, "instances", report);
    return report;
  }

  Tracer tracer;
  const LoopStats loop = closed_loop(s, options.seconds * 0.5, 0, &tracer, report);
  const double untraced_p50 = median(loop.latency_ms);
  report.set("trace.overhead", median(loop.traced_latency_ms) / untraced_p50, "ratio");
  report.set("loadgen.lag_p99_ms", tail_percentile(loop.gap_ms, loop.gap_ms.size() / 100).value,
             "ms");

  // Coverage: each instance's three branches replayed from outside; they run
  // one after another in the service, so their sum is the instance's time.
  std::vector<double> instance_ms, branches_ms;
  std::size_t best_binding = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const Instance& inst = s.instances[i];
    const std::uint64_t job = 2000 + i;
    ++report.attempted;
    const Clock::time_point t0 = Clock::now();
    run_instance(s, inst, report, nullptr, job, i == 0 ? &best_binding : nullptr);
    instance_ms.push_back(ms_between(t0, Clock::now()));

    {
      auto branch = tracer.span("branch.sweep", job);
      const auto backend = core::BackendRegistry::instance().create("gate.statevector_simulator");
      std::shared_ptr<core::SweepRealization> realization;
      {
        auto sp = tracer.span("backend.sweep_prepare", job);
        realization = backend->prepare_sweep(inst.qaoa);
      }
      const auto session = realization->open_session();
      const std::uint64_t base = inst.qaoa.exec_policy().seed;
      for (std::size_t b = 0; b < s.grid.size(); ++b) {
        auto sp = tracer.span("backend.sweep_binding", job);
        (void)session->run_binding(s.grid[b], core::sweep_seed(base, b));
      }
    }
    {
      auto branch = tracer.span("branch.anneal", job);
      quml::anneal::AnnealParams params = maxcut_anneal_params();
      params.seed = inst.ising.exec_policy().seed;
      auto sp = tracer.span("anneal.sample", job);
      (void)quml::anneal::SimulatedAnnealer().sample(inst.problem.model, params);
    }
    {
      auto branch = tracer.span("branch.wide", job);
      sim::Circuit logical;
      {
        auto sp = tracer.span("backend.lower", job);
        logical = quml::backend::lower_bundle(inst.wide);
      }
      sim::Circuit transpiled;
      {
        auto sp = tracer.span("transpile", job);
        transpiled = quml::transpile::transpile(
                         logical, quml::backend::transpile_options_for(inst.wide.exec_policy()))
                         .circuit;
      }
      probe_mps(tracer, job, transpiled, kShots, inst.wide.exec_policy().seed);
    }
    double sum = 0.0;
    for (const char* branch : {"branch.sweep", "branch.anneal", "branch.wide"})
      sum += covered_ms(tracer.spans(), branch).back();
    branches_ms.push_back(sum);
  }
  const double covered = median(branches_ms);
  report.set("trace.coverage", covered / median(instance_ms), "ratio");
  report.note("trace.coverage: branches " + std::to_string(covered) + " ms of instance wall " +
              std::to_string(median(instance_ms)) + " ms");

  const Instance& first = s.instances[0];
  ProbeInputs inputs;
  core::JobBundle bound = core::bind_bundle(first.qaoa, s.grid[best_binding]);
  inputs.jobs = {bound, first.ising, first.wide};
  inputs.dense_jobs = {bound};
  inputs.mps_job = first.wide;
  inputs.sweep_bundle = first.qaoa;
  inputs.sweep_bindings = s.grid;
  inputs.sweep_repeats = 2;
  inputs.anneal_instance = first.problem;
  inputs.anneal_params = maxcut_anneal_params();
  s = Setup{};
  run_layer_probes(options, inputs, tracer, report);
  tracer.write_ndjson(options.out_dir + "/spans-maxcut_portability.ndjson");
  return report;
}

}  // namespace perfbench
