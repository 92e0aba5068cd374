#include "probes.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "analysis/passes.hpp"
#include "backend/gate_backend.hpp"
#include "backend/lowering.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "json/json.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/mps.hpp"
#include "sim/sim_state.hpp"
#include "transpile/transpiler.hpp"

namespace perfbench {

namespace serve = quml::serve;
namespace svc = quml::svc;
namespace json = quml::json;

namespace {

/// Splits a trailing-measurement circuit into its unitary program and
/// (qubit, clbit) readout list, as sim::Engine::run_counts does.
void split_readout(const sim::Circuit& circuit, std::vector<sim::Instruction>& unitaries,
                   std::vector<std::pair<int, int>>& measurements) {
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == sim::Gate::Measure)
      measurements.emplace_back(inst.qubits[0], inst.clbits[0]);
    else
      unitaries.push_back(inst);
  }
}

core::Counts to_counts(const sim::CountMap& raw) {
  core::Counts counts;
  for (const auto& [bits, n] : raw) counts.add(bits, n);
  return counts;
}

}  // namespace

core::ExecutionResult replay_ingress(Tracer& tracer, std::uint64_t job,
                                     const core::JobBundle& bundle, svc::ExecutionService& service,
                                     serve::JobStore& store, const std::string& tenant) {
  json::Value request = json::Value::object();
  request.set("op", "submit");
  request.set("bundle", bundle.to_json());
  const std::string frame = serve::encode_frame(json::dump(request), serve::Framing::Newline);

  auto root = tracer.span("ingress", job);
  std::string text;
  {
    auto s = tracer.span("serve.frame.decode", job);
    serve::FrameDecoder decoder;
    decoder.feed(frame);
    text = decoder.next().value();
  }
  json::Value doc;
  {
    auto s = tracer.span("json.parse", job);
    doc = json::parse(text);
  }
  core::JobBundle decoded;
  {
    auto s = tracer.span("core.bundle_from_json", job);
    decoded = core::JobBundle::from_json(doc.at("bundle"));
  }
  {
    auto s = tracer.span("analysis.admit", job);
    quml::analysis::AnalyzeOptions options;
    options.require_bound = true;
    options.resource_notes = false;
    if (quml::analysis::analyze_bundle(decoded, options).has_errors())
      throw std::runtime_error("bundle " + decoded.job_id + " failed admission");
  }
  {
    auto s = tracer.span("serve.store.append", job);
    store.append_enqueue(serve::PendingJob{job, tenant, decoded});
  }
  svc::JobId id = 0;
  {
    auto s = tracer.span("svc.submit", job);
    id = service.submit(decoded);
  }
  serve::JobInfo info;
  {
    auto s = tracer.span("svc.wait", job);
    const svc::JobHandle handle = service.handle(id);
    info.result = handle.result();
    info.engine = handle.engine();
    info.attempts = handle.attempts();
  }
  service.forget(id);
  info.known = true;
  info.ticket = job;
  info.tenant = tenant;
  info.status = "DONE";
  std::string reply;
  {
    auto s = tracer.span("json.dump", job);
    reply = json::dump(serve::result_response(info));
  }
  std::string reply_frame;
  {
    auto s = tracer.span("serve.frame.encode", job);
    reply_frame = serve::encode_frame(reply, serve::Framing::Newline);
  }
  {
    auto s = tracer.span("serve.client.decode", job);
    serve::FrameDecoder decoder;
    decoder.feed(reply_frame);
    const json::Value parsed = json::parse(decoder.next().value());
    if (parsed.get_string("status", "") != "DONE")
      throw std::runtime_error("replayed job did not settle DONE");
  }
  return *info.result;
}

GateReplay replay_gate(Tracer& tracer, std::uint64_t job, const core::JobBundle& bundle) {
  const core::ExecPolicy exec = bundle.exec_policy();
  GateReplay out;
  auto root = tracer.span("pipeline", job);
  sim::Circuit logical;
  {
    auto s = tracer.span("backend.lower", job);
    logical = quml::backend::lower_bundle(bundle);
  }
  {
    auto s = tracer.span("transpile", job);
    out.transpiled =
        quml::transpile::transpile(logical, quml::backend::transpile_options_for(exec)).circuit;
  }
  out.gates_out = out.transpiled.instructions().size();
  const sim::Engine engine;  // dense statevector, default fusion caps
  const int n = out.transpiled.num_qubits();
  std::vector<sim::Instruction> unitaries;
  std::vector<std::pair<int, int>> measurements;
  std::vector<sim::FusedOp> ops;
  {
    auto s = tracer.span("sim.fuse", job);
    split_readout(out.transpiled, unitaries, measurements);
    ops = sim::fuse_unitaries(unitaries, n, engine.fusion_options());
  }
  out.fused_ops = ops.size();
  // Every fused op is one pass over the amplitudes, reading and writing each
  // 16-byte complex once.
  out.bytes_moved = static_cast<double>(ops.size()) * 2.0 * 16.0 * std::ldexp(1.0, n);
  std::unique_ptr<sim::SimState> state;
  {
    auto s = tracer.span("sim.apply", job);
    state = sim::make_sim_state(n, engine.config());
    sim::apply_fused(*state, ops);
  }
  sim::CountMap raw;
  {
    auto s = tracer.span("sim.sample", job);
    quml::Rng rng(exec.seed);
    const sim::BasisHistogram histogram = state->sample_basis(exec.samples, rng);
    raw = sim::counts_from_basis_histogram(histogram, measurements,
                                           out.transpiled.num_clbits());
  }
  {
    auto s = tracer.span("core.decode", job);
    out.counts = to_counts(raw);
    const core::ResultSchema* schema = quml::backend::effective_schema(bundle.operators);
    if (schema == nullptr || schema->clbit_order.empty())
      throw std::runtime_error("bundle " + bundle.job_id + " has no result schema");
    const auto decoded = core::decode_counts(out.counts, *schema,
                                             bundle.registers.at(schema->clbit_order.front().reg));
    if (decoded.empty()) throw std::runtime_error("decode produced no outcomes");
  }
  return out;
}

core::Counts probe_engine(Tracer& tracer, std::uint64_t job, const sim::Circuit& transpiled,
                          std::int64_t shots, std::uint64_t seed) {
  auto s = tracer.span("sim.engine", job);
  return to_counts(sim::Engine().run_counts(transpiled, shots, seed));
}

int probe_mps(Tracer& tracer, std::uint64_t job, const sim::Circuit& transpiled,
              std::int64_t shots, std::uint64_t seed) {
  sim::StateConfig config;
  config.representation = sim::StateRep::Mps;
  const sim::Engine engine(config);
  std::vector<sim::Instruction> unitaries;
  std::vector<std::pair<int, int>> measurements;
  split_readout(transpiled, unitaries, measurements);
  auto s = tracer.span("sim.mps", job);
  std::unique_ptr<sim::SimState> state = sim::make_sim_state(transpiled.num_qubits(), config);
  sim::apply_fused(*state, sim::fuse_unitaries(unitaries, transpiled.num_qubits(),
                                               engine.fusion_options()));
  const auto* mps = dynamic_cast<const sim::Mps*>(state.get());
  if (mps == nullptr) throw std::runtime_error("MPS config built a non-MPS state");
  const int peak = mps->peak_bond_dimension();
  quml::Rng rng(seed);
  const sim::BasisHistogram histogram = state->sample_basis(shots, rng);
  if (histogram.empty()) throw std::runtime_error("MPS sampling produced no shots");
  return peak;
}

bool probe_daemon_submit(Tracer& tracer, std::uint64_t job, serve::JobDaemon& daemon,
                         const std::string& tenant, const core::JobBundle& bundle) {
  serve::SubmitReply reply;
  {
    auto s = tracer.span("serve.daemon.submit", job);
    reply = daemon.submit(tenant, bundle);
  }
  if (reply.outcome != serve::SubmitOutcome::Accepted) return false;
  daemon.wait_for(tenant, reply.ticket, std::chrono::milliseconds(60000));
  return daemon.info(tenant, reply.ticket).status == "DONE";
}

double probe_sched(Tracer& tracer, std::uint64_t job, const core::JobBundle& bundle,
                   const std::string& engine, double observed_us) {
  const std::vector<quml::sched::BackendCapability> caps = quml::sched::registry_capabilities();
  {
    auto s = tracer.span("sched.choose", job);
    (void)quml::sched::choose_backend(bundle, caps);
  }
  const std::string canonical = core::BackendRegistry::instance().canonical(engine);
  for (const auto& cap : caps)
    if (cap.name == canonical) {
      const quml::sched::JobEstimate est = quml::sched::estimate(bundle, cap);
      if (!est.feasible) throw std::runtime_error("scheduler calls the executed job infeasible");
      return est.duration_us / observed_us;
    }
  throw std::runtime_error("engine " + engine + " is not in the capability snapshot");
}

SweepProbe probe_sweep(Tracer& tracer, std::uint64_t job, svc::ExecutionService& service,
                       const core::JobBundle& bundle,
                       const std::vector<std::vector<double>>& bindings) {
  SweepProbe out;
  const std::uint64_t base_seed = bundle.exec_policy().seed;
  const Clock::time_point t0 = Clock::now();
  svc::SweepHandle sweep;
  {
    auto s = tracer.span("svc.sweep_submit", job);
    sweep = service.submit_sweep(bundle, bindings);
  }
  {
    auto s = tracer.span("svc.sweep_wait", job);
    sweep.wait();
  }
  out.sweep_grid_ms = ms_between(t0, Clock::now());
  out.engine = sweep.engine();
  out.plan_cached = sweep.plan_cached();
  for (std::size_t i = 0; i < bindings.size(); ++i) out.results.push_back(sweep.result(i));

  // The same grid as independent jobs, each bound and seeded as the sweep
  // seeds binding i, routed to the engine the sweep resolved.
  std::vector<core::JobBundle> bound;
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    core::JobBundle b = core::bind_bundle(bundle, bindings[i]);
    b.context->exec.engine = out.engine;
    b.context->exec.seed = core::sweep_seed(base_seed, i);
    bound.push_back(std::move(b));
  }
  std::vector<core::ExecutionResult> independent;
  {
    auto s = tracer.span("svc.independent_grid", job);
    const Clock::time_point t1 = Clock::now();
    std::vector<svc::JobId> ids = service.submit_batch(std::move(bound));
    for (const svc::JobId id : ids) {
      independent.push_back(service.handle(id).result());
      service.forget(id);
    }
    out.independent_grid_ms = ms_between(t1, Clock::now());
  }
  for (std::size_t i = 0; i < bindings.size(); ++i)
    if (independent[i].counts.map() != out.results[i].counts.map()) out.ok = false;

  // The realization itself, one binding at a time.
  const std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::instance().create(out.engine);
  const std::shared_ptr<core::SweepRealization> realization = backend->prepare_sweep(bundle);
  if (realization) {
    const std::unique_ptr<core::SweepSession> session = realization->open_session();
    for (std::size_t i = 0; i < bindings.size(); ++i) {
      core::ExecutionResult r;
      {
        auto s = tracer.span("backend.sweep_binding", job);
        r = session->run_binding(bindings[i], core::sweep_seed(base_seed, i));
      }
      if (r.counts.map() != out.results[i].counts.map()) out.ok = false;
    }
  }
  return out;
}

double probe_anneal(Tracer& tracer, std::uint64_t job, const quml::anneal::IsingModel& model,
                    const quml::anneal::AnnealParams& params, double ground_energy) {
  quml::anneal::SampleSet samples;
  {
    auto s = tracer.span("anneal.sample", job);
    samples = quml::anneal::SimulatedAnnealer().sample(model, params);
  }
  std::int64_t useful = 0;
  for (const auto& sample : samples.samples())
    if (sample.energy <= ground_energy + 1e-9) useful += sample.occurrences;
  return static_cast<double>(useful) / static_cast<double>(samples.total_reads());
}

core::Counts probe_wire(Tracer& tracer, std::uint64_t job, serve::Client& client,
                        const core::JobBundle& bundle, bool& ok) {
  json::Value ticket_reply;
  {
    auto s = tracer.span("serve.submit_rtt", job);
    ticket_reply = client.submit(bundle);
  }
  if (!ticket_reply.get_bool("ok", false)) {
    ok = false;
    return {};
  }
  json::Value settled;
  {
    auto s = tracer.span("serve.settle_wait", job);
    settled = client.result(static_cast<std::uint64_t>(ticket_reply.get_int("ticket", 0)), true);
  }
  if (settled.get_string("status", "") != "DONE" || settled.find("counts") == nullptr) {
    ok = false;
    return {};
  }
  return core::Counts::from_json(settled.at("counts"));
}

void report_span_layers(const Tracer& tracer, Report& report) {
  const auto by_name = self_time_by_name(tracer.spans());
  struct Row {
    const char* span;
    const char* metric;
    double scale;  // ms -> metric unit
    const char* unit;
  };
  static const Row rows[] = {
      {"serve.submit_rtt", "serve.submit_rtt_us", 1e3, "us"},
      {"serve.settle_wait", "serve.settle_wait_ms", 1.0, "ms"},
      {"serve.frame.encode", "serve.frame.encode_us", 1e3, "us"},
      {"serve.frame.decode", "serve.frame.decode_us", 1e3, "us"},
      {"serve.store.append", "serve.store.append_us", 1e3, "us"},
      {"serve.daemon.submit", "serve.daemon.submit_us", 1e3, "us"},
      {"json.parse", "json.parse_us", 1e3, "us"},
      {"json.dump", "json.dump_us", 1e3, "us"},
      {"core.bundle_from_json", "core.bundle_from_json_us", 1e3, "us"},
      {"analysis.admit", "analysis.admit_us", 1e3, "us"},
      {"svc.submit", "svc.submit_us", 1e3, "us"},
      {"backend.lower", "backend.lower_ms", 1.0, "ms"},
      {"transpile", "transpile.ms", 1.0, "ms"},
      {"sim.fuse", "sim.fuse_ms", 1.0, "ms"},
      {"sim.apply", "sim.apply_ms", 1.0, "ms"},
      {"sim.sample", "sim.sample_ms", 1.0, "ms"},
      {"sim.engine", "sim.engine_ms", 1.0, "ms"},
      {"svc.sweep_submit", "svc.sweep_submit_ms", 1.0, "ms"},
      {"backend.sweep_binding", "backend.sweep_binding_ms", 1.0, "ms"},
      {"anneal.sample", "anneal.sample_ms", 1.0, "ms"},
      {"sim.mps", "sim.mps_ms", 1.0, "ms"},
      {"sched.choose", "sched.choose_us", 1e3, "us"},
  };
  for (const Row& row : rows) {
    const auto it = by_name.find(row.span);
    if (it == by_name.end() && report.has(row.metric)) continue;  // measured by the workload
    if (it == by_name.end())
      throw std::runtime_error(std::string("traced run recorded no '") + row.span + "' span");
    report.set(row.metric, median(it->second) * row.scale, row.unit);
  }
}

std::vector<double> covered_ms(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == root)
      out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns - self[i]) * 1e-6);
  return out;
}

void run_layer_probes(const RunOptions& options, const ProbeInputs& inputs, Tracer& tracer,
                      Report& report) {
  WireStack stack(options.out_dir, "probe");
  svc::ExecutionService service;
  const std::string store_path =
      options.out_dir + "/probe-store-" + std::to_string(::getpid()) + ".journal";
  std::remove(store_path.c_str());
  std::uint64_t job = 1u << 20;  // probe job ids, apart from the workload's own

  {
    serve::JobStore store(store_path);
    std::optional<serve::Client> client;
    if (inputs.wire_probe) {
      client.emplace(serve::Client::connect_unix(stack.socket_path()));
      client->hello(WireStack::kTenantA);
    }
    std::vector<double> svc_ms, direct_ms, ratios;
    for (const core::JobBundle& bundle : inputs.jobs) {
      ++job;
      // Through the service, end to end (what svc.overhead_ms charges).
      const Clock::time_point t0 = Clock::now();
      const svc::JobId id = service.submit(bundle);
      const svc::JobHandle handle = service.handle(id);
      const core::ExecutionResult via_svc = handle.result();
      svc_ms.push_back(ms_between(t0, Clock::now()));
      const std::string engine = handle.engine();
      service.forget(id);

      // The engine's run() called directly on the same bundle.
      const std::unique_ptr<core::Backend> backend =
          core::BackendRegistry::instance().create(engine);
      const Clock::time_point t1 = Clock::now();
      const core::ExecutionResult direct = backend->run(bundle);
      direct_ms.push_back(ms_between(t1, Clock::now()));
      if (direct.counts.map() != via_svc.counts.map())
        report.check_failed("job " + bundle.job_id + ": service and direct run differ");
      ratios.push_back(probe_sched(tracer, job, bundle, engine, direct_ms.back() * 1e3));

      const core::ExecutionResult replayed =
          replay_ingress(tracer, job, bundle, service, store, WireStack::kTenantA);
      if (replayed.counts.map() != via_svc.counts.map())
        report.check_failed("job " + bundle.job_id + ": ingress replay differs from service");
      if (!probe_daemon_submit(tracer, job, stack.daemon(), WireStack::kTenantA, bundle))
        report.check_failed("job " + bundle.job_id + ": in-process daemon submit did not settle");
      if (client) {
        bool ok = true;
        const core::Counts wire = probe_wire(tracer, job, *client, bundle, ok);
        if (!ok || wire.map() != via_svc.counts.map())
          report.check_failed("job " + bundle.job_id + ": wire result differs from service");
      }
    }
    report.set("svc.overhead_ms", median(svc_ms) - median(direct_ms), "ms");
    // Geometric mean: the ratios of different engines multiply, not add.
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    report.set("sched.estimate_ratio", std::exp(log_sum / static_cast<double>(ratios.size())),
               "ratio");
  }
  std::remove(store_path.c_str());

  std::vector<double> gates_out, fused_ops, bytes;
  for (const core::JobBundle& bundle : inputs.dense_jobs) {
    ++job;
    const core::ExecPolicy exec = bundle.exec_policy();
    const GateReplay replay = replay_gate(tracer, job, bundle);
    const core::Counts engine = probe_engine(tracer, job, replay.transpiled, exec.samples, exec.seed);
    const core::Counts direct = core::BackendRegistry::instance()
                                    .create("gate.statevector_simulator")
                                    ->run(bundle)
                                    .counts;
    if (replay.counts.map() != direct.map() || engine.map() != direct.map())
      report.check_failed("job " + bundle.job_id + ": staged replay differs from the backend");
    gates_out.push_back(static_cast<double>(replay.gates_out));
    fused_ops.push_back(static_cast<double>(replay.fused_ops));
    bytes.push_back(replay.bytes_moved * 1e-9);
  }
  report.set("transpile.gates_out", median(gates_out), "count");
  report.set("sim.fused_ops", median(fused_ops), "count");
  report.set("sim.bytes_moved_gb", median(bytes), "GB");

  {
    ++job;
    const core::ExecPolicy exec = inputs.mps_job.exec_policy();
    const sim::Circuit transpiled =
        quml::transpile::transpile(quml::backend::lower_bundle(inputs.mps_job),
                                   quml::backend::transpile_options_for(exec))
            .circuit;
    std::vector<double> bonds;
    for (int rep = 0; rep < 3; ++rep)
      bonds.push_back(probe_mps(tracer, job, transpiled, exec.samples, exec.seed));
    report.set("sim.mps_peak_bond", median(bonds), "count");
  }

  std::vector<double> sweep_grid, independent_grid;
  for (int rep = 0; rep < inputs.sweep_repeats; ++rep) {
    ++job;
    const SweepProbe sweep =
        probe_sweep(tracer, job, service, inputs.sweep_bundle, inputs.sweep_bindings);
    if (!sweep.ok) report.check_failed("sweep, independent jobs and realization disagree");
    if (rep == 0)
      report.note("sweep of " + std::to_string(inputs.sweep_bindings.size()) + " bindings on " +
                  sweep.engine + (sweep.plan_cached ? ", plan cached" : ", per-binding fallback"));
    sweep_grid.push_back(sweep.sweep_grid_ms);
    independent_grid.push_back(sweep.independent_grid_ms);
  }
  report.set("svc.sweep_grid_ms", median(sweep_grid), "ms");
  report.set("svc.independent_grid_ms", median(independent_grid), "ms");

  std::vector<double> ground;
  for (int rep = 0; rep < 3; ++rep) {
    ++job;
    quml::anneal::AnnealParams params = inputs.anneal_params;
    params.seed = derive_seed(inputs.anneal_instance.seed, 7, static_cast<std::uint64_t>(rep));
    ground.push_back(probe_anneal(tracer, job, inputs.anneal_instance.model, params,
                                  inputs.anneal_instance.ground_energy));
  }
  report.set("anneal.ground_fraction", median(ground), "ratio");

  report_span_layers(tracer, report);
}

}  // namespace perfbench
