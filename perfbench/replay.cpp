#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/intervals.hpp"
#include "analysis/lengths.hpp"
#include "jit/compiler.hpp"
#include "net/serializer.hpp"
#include "rt/device.hpp"

namespace perfbench {

using namespace javelin;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Run `f` and add its host time to `acc` (milliseconds).
template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += ms_since(t0);
  } else {
    auto r = f();
    acc += ms_since(t0);
    return r;
  }
}

std::vector<const jvm::ClassFile*> loaded_classes(const jvm::Jvm& vm) {
  std::vector<const jvm::ClassFile*> out;
  for (std::size_t c = 0; c < vm.num_classes(); ++c)
    out.push_back(&vm.cls(static_cast<std::int32_t>(c)).cf);
  return out;
}

/// The deploy-time analyses rt::Client runs under DecisionPolicy::static_seed
/// and ::range_bce, over a deployed JVM. Returns the per-method range proofs
/// the range_bce knob hands to Level-3 compiles (empty when it is off).
std::vector<std::vector<std::uint8_t>> run_fact_passes(
    const jvm::Jvm& vm, const rt::DecisionPolicy& policy) {
  std::vector<std::vector<std::uint8_t>> inbounds;
  const std::vector<const jvm::ClassFile*> classes = loaded_classes(vm);
  jvm::ClassSetResolver resolver;
  for (const jvm::ClassFile* cf : classes) resolver.add(cf);
  if (policy.static_seed) {
    analysis::Analyzer analyzer(resolver);
    for (std::size_t i = 0; i < vm.num_methods(); ++i) {
      const jvm::RtMethod& m = vm.method(static_cast<std::int32_t>(i));
      (void)analyzer.analyze_method(vm.cls(m.class_id).cf, *m.info);
    }
  }
  if (policy.range_bce) {
    const analysis::LengthAnalysis la = analysis::analyze_lengths(classes);
    inbounds.assign(vm.num_methods(), {});
    for (std::size_t i = 0; i < vm.num_methods(); ++i) {
      const jvm::RtMethod& m = vm.method(static_cast<std::int32_t>(i));
      std::vector<analysis::ArgFact> facts;
      if (const analysis::MethodLengthFacts* f =
              la.incomplete ? nullptr : la.find(m.info);
          f != nullptr && f->valid()) {
        facts.resize(f->params.size());
        for (std::size_t p = 0; p < f->params.size(); ++p) {
          if (!f->params[p].non_null) continue;
          facts[p].non_null = true;
          facts[p].is_array = true;
          facts[p].array_len = analysis::Interval{
              f->params[p].min_len, analysis::Interval::kI32Max};
        }
      }
      const analysis::MethodIntervals mi = analysis::analyze_intervals(
          vm.cls(m.class_id).cf, *m.info, &resolver, facts);
      if (!mi.converged) continue;
      bool any = false;
      for (const char flag : mi.proven_inbounds) any = any || flag != 0;
      if (any)
        inbounds[i].assign(mi.proven_inbounds.begin(), mi.proven_inbounds.end());
    }
  }
  return inbounds;
}

std::vector<std::int32_t> compile_plan_ids(const jvm::Jvm& vm,
                                           std::int32_t method_id) {
  std::vector<std::int32_t> plan{method_id};
  for (std::int32_t callee : jit::collect_callees(vm, method_id))
    plan.push_back(callee);
  return plan;
}

/// Compile `method_id`'s plan at `level` on `dev`, timing each
/// jit::compile_method into `lt`. Installs the code when `install` is set and
/// skips methods already installed at `level` (as rt::Client does).
void compile_plan(rt::Device& dev, std::int32_t method_id, int level,
                  bool install, LayerTimes& lt,
                  const std::vector<std::vector<std::uint8_t>>* inbounds,
                  obs::TraceBuffer* trace = nullptr) {
  for (std::int32_t id : compile_plan_ids(dev.vm, method_id)) {
    if (install && dev.engine.compiled_level(id) == level) continue;
    jit::CompileOptions opts{.opt_level = level};
    if (inbounds && static_cast<std::size_t>(id) < inbounds->size() &&
        !(*inbounds)[static_cast<std::size_t>(id)].empty())
      opts.range_inbounds = &(*inbounds)[static_cast<std::size_t>(id)];
    try {
      auto res = timed(lt.compile_ms[static_cast<std::size_t>(level - 1)], [&] {
        return jit::compile_method(dev.vm, id, opts, dev.cfg.energy, trace);
      });
      if (install) dev.engine.install(id, std::move(res.program), level);
    } catch (const jit::CompileError&) {
      // Left interpreted, as rt::Client and the profiler do.
    }
  }
}

/// The side device and side server that re-run, layer by layer, the work
/// one Client::run did inside the replica.
class SideReplay {
 public:
  SideReplay(const std::vector<jvm::ClassFile>& classes,
             const rt::ClientConfig& config, const apps::App& app,
             LayerTimes& lt)
      : app_(app), lt_(lt), dev_(config.machine) {
    dev_.core.step_limit = 500'000'000'000ULL;
    timed(lt_.link_ms, [&] { dev_.deploy(classes); });
    if (config.decision.static_seed || config.decision.range_bce)
      inbounds_ = timed(lt_.facts_ms,
                        [&] { return run_fact_passes(dev_.vm, config.decision); });
    server_.deploy(classes);
    mid_ = dev_.vm.find_method(app.cls, app.method);
  }

  /// Re-run one invocation at `scale`, its arguments drawn from `args_rng`
  /// (a copy of the replica's workload RNG before the call), as `report`
  /// says the client executed it.
  void replay(double scale, Rng args_rng, const rt::InvokeReport& report) {
    const std::size_t mark = dev_.arena.heap_mark();
    const std::vector<jvm::Value> args =
        app_.make_args(dev_.vm, scale, args_rng);
    switch (report.mode) {
      case rt::ExecMode::kInterpret:
        dev_.engine.set_force_interpret(true);
        timed(lt_.interp_ms, [&] { dev_.engine.invoke(mid_, args); });
        dev_.engine.set_force_interpret(false);
        break;
      case rt::ExecMode::kLocal1:
      case rt::ExecMode::kLocal2:
      case rt::ExecMode::kLocal3: {
        const int level = static_cast<int>(report.mode);
        if (dev_.engine.compiled_level(mid_) != level) {
          if (report.remote_compile)
            download(level);
          else
            compile_plan(dev_, mid_, level, /*install=*/true, lt_, &inbounds_);
        }
        timed(lt_.native_ms, [&] { dev_.engine.invoke(mid_, args); });
        break;
      }
      case rt::ExecMode::kRemote:
        remote(args);
        break;
      case rt::ExecMode::kBaseline:
        timed(lt_.interp_ms, [&] { dev_.engine.invoke(mid_, args); });
        break;
    }
    dev_.arena.heap_release(mark);
  }

 private:
  void download(int level) {
    const jvm::RtMethod& m = dev_.vm.method(mid_);
    const net::CompileRequest req{dev_.vm.cls(m.class_id).cf.name, m.info->name,
                                  level};
    net::CompileResponse resp =
        timed(lt_.server_compile_ms, [&] { return server_.handle_compile(req); });
    for (auto& unit : resp.units) {
      const std::int32_t id = dev_.vm.find_method(unit.cls, unit.method);
      if (id >= 0) dev_.engine.install(id, std::move(unit.program), level);
    }
  }

  void remote(const std::vector<jvm::Value>& args) {
    const jvm::RtMethod& m = dev_.vm.method(mid_);
    net::InvokeRequest req;
    req.cls = dev_.vm.cls(m.class_id).cf.name;
    req.method = m.info->name;
    timed(lt_.serialize_ms, [&] {
      for (const jvm::Value& v : args)
        req.args.push_back(net::serialize_value(dev_.vm, v, /*charge=*/true));
    });
    const rt::Server::ExecOutcome out = timed(lt_.server_invoke_ms, [&] {
      return server_.handle_invoke(req, /*arrival_time=*/0.0, /*client_id=*/1);
    });
    if (!out.response.result.empty())
      timed(lt_.deserialize_ms, [&] {
        (void)net::deserialize_value(dev_.vm, out.response.result,
                                     /*charge=*/true);
      });
  }

  const apps::App& app_;
  LayerTimes& lt_;
  rt::Device dev_;
  rt::Server server_;
  std::int32_t mid_ = -1;
  std::vector<std::vector<std::uint8_t>> inbounds_;
};

void append(std::string& s, const char* fmt, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  s += buf;
}

void append_fit(std::string& s, const PolyFit& f) {
  s += " [";
  for (double c : f.coeffs) append(s, " %.17g", c);
  s += " ]";
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  device_new_ms += o.device_new_ms;
  server_deploy_ms += o.server_deploy_ms;
  client_new_ms += o.client_new_ms;
  client_deploy_ms += o.client_deploy_ms;
  link_ms += o.link_ms;
  facts_ms += o.facts_ms;
  for (std::size_t i = 0; i < compile_ms.size(); ++i)
    compile_ms[i] += o.compile_ms[i];
  interp_ms += o.interp_ms;
  native_ms += o.native_ms;
  serialize_ms += o.serialize_ms;
  deserialize_ms += o.deserialize_ms;
  server_invoke_ms += o.server_invoke_ms;
  server_compile_ms += o.server_compile_ms;
  run_ms += o.run_ms;
  cell_ms += o.cell_ms;
  covered_ms += o.covered_ms;
  matched = matched && o.matched;
  return *this;
}

double LayerTimes::run_unattributed_ms() const {
  if (run_ms == 0.0) return 0.0;
  return run_ms - (interp_ms + native_ms + compile_ms[0] + compile_ms[1] +
                   compile_ms[2] + serialize_ms + deserialize_ms +
                   server_invoke_ms + server_compile_ms);
}

LayerTimes replay_scenario_cell(const sim::ScenarioRunner& runner,
                                std::uint64_t base_seed,
                                const ScenarioCell& cell,
                                const rt::ClientConfig& config,
                                const std::string& expected) {
  const apps::App& app = runner.app();
  const std::vector<jvm::ClassFile>& classes = runner.profiled_classes();
  LayerTimes lt;

  // Inputs exactly as ScenarioRunner::run / run_single derive them.
  std::unique_ptr<radio::ChannelProcess> channel;
  std::vector<double> scales;
  std::uint64_t seed = 0;
  if (cell.executions > 0) {
    Rng rng(base_seed ^
            (static_cast<std::uint64_t>(cell.situation) * 0x9e3779b9));
    scales = sim::scenario_scales(app, cell.situation, rng, cell.executions);
    channel = std::make_unique<radio::IidChannel>(
        sim::channel_weights(cell.situation), /*dwell=*/0.25,
        base_seed ^ 0xc4a77e1);
    seed = base_seed ^ (static_cast<std::uint64_t>(cell.situation) << 8);
  } else {
    scales = {cell.scale};
    channel = std::make_unique<radio::FixedChannel>(cell.channel);
    seed = base_seed ^ (static_cast<std::uint64_t>(cell.channel) << 16);
  }

  double side_ms = 0.0;  // Side-replay time, excluded from the cell.
  const auto t_cell = Clock::now();

  double server_new_ms = 0.0;
  auto server = timed(server_new_ms,
                      [] { return std::make_unique<rt::Server>(); });
  timed(lt.server_deploy_ms, [&] { server->deploy(classes); });
  lt.server_deploy_ms += server_new_ms;
  lt.device_new_ms += server_new_ms;  // The server and its client twin.

  net::Link link(radio::CommModel{}, seed ^ 0x11777);
  auto client = timed(lt.client_new_ms, [&] {
    return std::make_unique<rt::Client>(config, *server, *channel, link);
  });
  lt.device_new_ms += lt.client_new_ms;  // The client device.
  timed(lt.client_deploy_ms, [&] { client->deploy(classes); });
  client->device().core.step_limit = 500'000'000'000ULL;

  const auto t_side = Clock::now();
  SideReplay side(classes, config, app, lt);
  side_ms += ms_since(t_side);

  sim::StrategyResult out;
  Rng workload_rng(seed ^ 0xA0B1C2D3);
  Rng gap_rng(seed ^ 0x5e5e5e);
  for (double scale : scales) {
    client->skip_time(gap_rng.uniform_real(0.2, 2.0) * runner.think_time_s *
                      2.0);
    rt::Device& dev = client->device();
    const std::size_t mark = dev.arena.heap_mark();
    const Rng args_rng = workload_rng;
    const auto args = app.make_args(dev.vm, scale, workload_rng);
    rt::InvokeReport report;
    const jvm::Value result = timed(lt.run_ms, [&] {
      return client->run(app.cls, app.method, args, cell.strategy, &report);
    });
    if (!app.check(dev.vm, args, dev.vm, result)) out.all_correct = false;
    out.total_energy_j += report.energy_j;
    out.server_j += report.server_j;
    out.total_seconds += report.seconds;
    ++out.mode_counts[report.mode];
    if (report.compiled_this_call) ++out.compiles;
    if (report.remote_compile) ++out.remote_compiles;
    if (report.fallback_local) ++out.fallbacks;
    dev.arena.heap_release(mark);

    const auto t0 = Clock::now();
    side.replay(scale, args_rng, report);
    side_ms += ms_since(t0);
  }
  // Device teardown belongs to the cell, as in ScenarioRunner.
  client.reset();
  server.reset();
  lt.cell_ms = ms_since(t_cell) - side_ms;
  lt.covered_ms = lt.server_deploy_ms + lt.client_new_ms +
                  lt.client_deploy_ms + lt.run_ms;
  lt.matched = out.all_correct && fingerprint(out) == expected;
  return lt;
}

LayerTimes replay_profile(const apps::App& app, std::uint64_t seed,
                          obs::TraceBuffer* trace) {
  // Mirrors rt::profile_application step by step for the app's potential
  // method, on its own client and server measurement replicas.
  LayerTimes lt;
  const auto t_cell = Clock::now();
  std::vector<jvm::ClassFile> classes = app.classes;
  const std::uint64_t prof_seed = seed ^ 0x70f11e;

  auto client = timed(lt.device_new_ms, [] {
    return std::make_unique<rt::Device>(isa::client_machine());
  });
  auto server = timed(lt.device_new_ms, [] {
    return std::make_unique<rt::Device>(isa::server_machine());
  });
  client->core.step_limit = 200'000'000'000ULL;
  server->core.step_limit = 200'000'000'000ULL;
  client->engine.set_trace(trace);
  server->engine.set_trace(trace);
  timed(lt.link_ms, [&] { client->deploy(classes); });
  timed(lt.link_ms, [&] { server->deploy(classes); });

  const std::int32_t cid = client->vm.find_method(app.cls, app.method);
  const std::int32_t sid = server->vm.find_method(app.cls, app.method);
  const std::vector<double>& scales = app.profile_scales;
  constexpr std::size_t kReps = 2;

  compile_plan(*server, sid, 3, /*install=*/true, lt, nullptr, trace);
  for (std::size_t mode = 0; mode < jvm::kNumLocalModes; ++mode) {
    client->engine.clear_code();
    if (mode >= 1)
      compile_plan(*client, cid, static_cast<int>(mode), /*install=*/true, lt,
                   nullptr, trace);
    client->engine.set_force_interpret(mode == 0);
    for (std::size_t si = 0; si < scales.size(); ++si) {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        Rng rng(prof_seed ^ (si * 0x9e37u) ^ (rep * 0xc2b2u));
        const std::size_t mark = client->arena.heap_mark();
        const auto args = app.make_args(client->vm, scales[si], rng);
        timed(mode == 0 ? lt.interp_ms : lt.native_ms,
              [&] { client->engine.invoke(cid, args); });
        if (mode == 0)
          timed(lt.serialize_ms, [&] {
            for (const jvm::Value& v : args)
              (void)net::serialize_value(client->vm, v, /*charge=*/false);
          });
        client->arena.heap_release(mark);
      }
    }
    client->engine.set_force_interpret(false);
  }
  for (std::size_t si = 0; si < scales.size(); ++si) {
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      Rng rng(prof_seed ^ (si * 0x9e37u) ^ (rep * 0xc2b2u));
      const std::size_t mark = server->arena.heap_mark();
      const auto args = app.make_args(server->vm, scales[si], rng);
      const jvm::Value result = timed(
          lt.native_ms, [&] { return server->engine.invoke(sid, args); });
      if (result.kind != jvm::TypeKind::kVoid)
        timed(lt.serialize_ms, [&] {
          (void)net::serialize_value(server->vm, result, /*charge=*/false);
        });
      server->arena.heap_release(mark);
    }
  }
  for (int level = 1; level <= 3; ++level)
    compile_plan(*client, cid, level, /*install=*/false, lt, nullptr, trace);
  client.reset();
  server.reset();
  lt.cell_ms = ms_since(t_cell);
  lt.covered_ms = lt.device_new_ms + lt.link_ms + lt.compile_ms[0] +
                  lt.compile_ms[1] + lt.compile_ms[2] + lt.interp_ms +
                  lt.native_ms + lt.serialize_ms;
  return lt;
}

std::string fingerprint(const sim::StrategyResult& r) {
  std::string s;
  append(s, "%.17g", r.total_energy_j);
  append(s, " %.17g", r.server_j);
  append(s, " %.17g", r.total_seconds);
  for (const auto& [mode, n] : r.mode_counts)
    s += std::string(" ") + rt::exec_mode_name(mode) + ":" + std::to_string(n);
  s += " c=" + std::to_string(r.compiles) +
       " rc=" + std::to_string(r.remote_compiles) +
       " fb=" + std::to_string(r.fallbacks);
  return s;
}

std::string fingerprint(const jvm::EnergyProfile& p) {
  std::string s = p.valid ? "valid" : "invalid";
  for (const PolyFit& f : p.local_energy) append_fit(s, f);
  for (const PolyFit& f : p.local_cycles) append_fit(s, f);
  append_fit(s, p.server_cycles);
  append_fit(s, p.request_bytes);
  append_fit(s, p.response_bytes);
  for (double e : p.compile_energy) append(s, " %.17g", e);
  for (std::uint32_t b : p.code_size_bytes) s += " " + std::to_string(b);
  return s;
}

}  // namespace perfbench
