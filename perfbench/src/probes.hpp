#pragma once
// Layer probes for the traced run: each times quml's public functions on
// one of the workload's own jobs, one span per call (trace.hpp), so the
// per-layer metrics are medians of span self times.  The probes call the
// same functions the program calls on its blocking path, in the same order,
// but from the outside — spans inside the program are later work.

#include <cstdint>
#include <string>
#include <vector>

#include "anneal/sampler.hpp"
#include "common.hpp"
#include "core/result.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/store.hpp"
#include "sim/circuit.hpp"
#include "svc/execution_service.hpp"
#include "trace.hpp"

namespace perfbench {

/// Server-side replay of one wire job, stage by stage under a root span
/// "ingress": request frame decode, JSON parse, bundle decode, admission
/// analysis, journal append, service submit, service wait (queue handoff +
/// backend run), result JSON dump, response frame encode, and the client's
/// decode + parse of the response.  Returns the settled result.
core::ExecutionResult replay_ingress(Tracer& tracer, std::uint64_t job,
                                     const core::JobBundle& bundle,
                                     quml::svc::ExecutionService& service,
                                     quml::serve::JobStore& store, const std::string& tenant);

/// The gate backend's run() replayed stage by stage under a root span
/// "pipeline": lower, transpile, fuse, apply (incl. state allocation),
/// sample, decode.  Counts are bit-identical to GateBackend::run on the dense
/// engine for the same bundle.
struct GateReplay {
  core::Counts counts;
  sim::Circuit transpiled;
  std::size_t gates_out = 0;   ///< transpiled instruction count
  std::size_t fused_ops = 0;   ///< fused program length
  double bytes_moved = 0.0;    ///< computed: full-state sweeps x state bytes x 2 (read+write)
};
GateReplay replay_gate(Tracer& tracer, std::uint64_t job, const core::JobBundle& bundle);

/// sim::Engine::run_counts on a transpiled circuit, span "sim.engine".
core::Counts probe_engine(Tracer& tracer, std::uint64_t job, const sim::Circuit& transpiled,
                          std::int64_t shots, std::uint64_t seed);

/// The transpiled circuit on the MPS representation (fuse + apply +
/// sample), span "sim.mps"; returns the peak bond dimension reached.
int probe_mps(Tracer& tracer, std::uint64_t job, const sim::Circuit& transpiled,
              std::int64_t shots, std::uint64_t seed);

/// JobDaemon::submit in process (no socket), span "serve.daemon.submit";
/// waits for the job to settle outside the span.  False when not accepted.
bool probe_daemon_submit(Tracer& tracer, std::uint64_t job, quml::serve::JobDaemon& daemon,
                         const std::string& tenant, const core::JobBundle& bundle);

/// sched::choose_backend over the registry snapshot (span "sched.choose")
/// and sched::estimate for `engine`, returned as estimate / observed wall.
double probe_sched(Tracer& tracer, std::uint64_t job, const core::JobBundle& bundle,
                   const std::string& engine, double observed_us);

/// A parameter sweep three ways: submit_sweep (spans "svc.sweep_submit"
/// then "svc.sweep_wait"), the same bindings as independent bound submits
/// (span "svc.independent_grid"), and the realization driven directly (one
/// "backend.sweep_binding" span per SweepSession::run_binding).  `ok` is
/// false when the three disagree on any binding's counts.
struct SweepProbe {
  double sweep_grid_ms = 0.0;
  double independent_grid_ms = 0.0;
  bool plan_cached = false;
  bool ok = true;
  std::string engine;
  std::vector<core::ExecutionResult> results;  ///< per binding, from the sweep
};
SweepProbe probe_sweep(Tracer& tracer, std::uint64_t job, quml::svc::ExecutionService& service,
                       const core::JobBundle& bundle,
                       const std::vector<std::vector<double>>& bindings);

/// SimulatedAnnealer::sample direct (span "anneal.sample"); returns the
/// share of reads that reached `ground_energy` (useful reads / reads).
double probe_anneal(Tracer& tracer, std::uint64_t job, const quml::anneal::IsingModel& model,
                    const quml::anneal::AnnealParams& params, double ground_energy);

/// Submit -> ticket (span "serve.submit_rtt") and ticket -> settled result
/// (span "serve.settle_wait") over a blocking client on the socket.
/// Returns the result's counts; `ok` false on any non-DONE reply.
core::Counts probe_wire(Tracer& tracer, std::uint64_t job, quml::serve::Client& client,
                        const core::JobBundle& bundle, bool& ok);

/// The workload's own jobs, as the layer probes consume them.
struct ProbeInputs {
  /// Bound, runnable jobs: each runs through the ingress replay, the service
  /// (svc.overhead_ms against a direct Backend::run), the scheduler, the
  /// in-process daemon and, when `wire_probe`, the socket.
  std::vector<core::JobBundle> jobs;
  /// Jobs for the staged gate replay and sim::Engine (dense engine).
  std::vector<core::JobBundle> dense_jobs;
  /// Job whose transpiled circuit runs on the MPS representation.
  core::JobBundle mps_job;
  /// A sweep over `sweep_bindings` (rows of the bundle's declared parameters;
  /// empty rows re-run a bound job), repeated `sweep_repeats` times.
  core::JobBundle sweep_bundle;
  std::vector<std::vector<double>> sweep_bindings;
  int sweep_repeats = 1;
  /// Ising instance for the annealer probe.
  MaxcutInstance anneal_instance;
  quml::anneal::AnnealParams anneal_params;
  bool wire_probe = true;
};

/// Runs every probe on `inputs` and reports every per-layer metric except
/// trace.coverage, trace.overhead and loadgen.lag_p99_ms (and, without
/// `wire_probe`, serve.submit_rtt_us / serve.settle_wait_ms), which the
/// workload measures itself.  Output mismatches between the replays and
/// the service are reported as failed checks.
void run_layer_probes(const RunOptions& options, const ProbeInputs& inputs, Tracer& tracer,
                      Report& report);

/// Per root span named `root`: the part of its interval its descendants'
/// self times cover (duration minus its own self time), in ms.
std::vector<double> covered_ms(const std::vector<Span>& spans, const std::string& root);

/// Fills the span-derived per-layer metrics into `report` from the tracer's
/// spans (medians of self times, converted to each metric's unit).
void report_span_layers(const Tracer& tracer, Report& report);

}  // namespace perfbench
