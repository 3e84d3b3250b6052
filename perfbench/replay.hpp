// Outside-in layer trace for the host-performance benchmark.
//
// The simulator has no host clock inside it, so the traced run measures each
// layer from the outside: it rebuilds a benchmark cell out of the layers'
// public entry points (rt::Server, rt::Client, rt::Device, jvm::Jvm,
// jit::compile_method, jvm::ExecutionEngine::invoke, net::serialize_value,
// the analysis passes) and times every call with std::chrono::steady_clock.
//
// A scenario cell is replayed in two parts:
//  * the replica: the same Server / Link / Client / invocation sequence that
//    sim::ScenarioRunner runs for the cell, with the seeds it derives, timed
//    around each top-level call (server set-up, client set-up, Client::run).
//    Its StrategyResult fingerprint must equal the real cell's;
//  * the side replay: after each Client::run, the work that call did inside
//    the client (interpretation, native execution, JIT compiles, the remote
//    exchange's serializer and server calls) is re-run on a side device and
//    side server and timed per layer. The side replay is excluded from the
//    replica's cell time.
//
// A deploy_profile cell (rt::profile_application for one app) is replayed
// the same way, step by step, on its own measurement replicas.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "apps/app.hpp"
#include "radio/radio.hpp"
#include "rt/client.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// Host time per layer for one replayed cell (milliseconds).
struct LayerTimes {
  double device_new_ms = 0.0;     ///< rt::Device constructors (mem::Arena).
  double server_deploy_ms = 0.0;  ///< rt::Server constructor + deploy.
  double client_new_ms = 0.0;     ///< rt::Client constructor.
  double client_deploy_ms = 0.0;  ///< rt::Client::deploy.
  double link_ms = 0.0;           ///< jvm::Jvm load + link.
  double facts_ms = 0.0;          ///< Analyses behind static_seed/range_bce.
  std::array<double, 3> compile_ms{};  ///< jit::compile_method per level.
  double interp_ms = 0.0;         ///< ExecutionEngine::invoke, interpreted.
  double native_ms = 0.0;         ///< ExecutionEngine::invoke, native code.
  double serialize_ms = 0.0;      ///< net::serialize_value.
  double deserialize_ms = 0.0;    ///< net::deserialize_value.
  double server_invoke_ms = 0.0;  ///< rt::Server::handle_invoke.
  double server_compile_ms = 0.0; ///< rt::Server::handle_compile.
  double run_ms = 0.0;            ///< rt::Client::run (scenario cells).
  double cell_ms = 0.0;           ///< Replayed cell wall time.
  double covered_ms = 0.0;        ///< Disjoint layer time inside cell_ms.
  bool matched = true;            ///< Replica reproduced the real cell.

  LayerTimes& operator+=(const LayerTimes& o);
  /// Time inside Client::run that no replayed layer accounts for: the
  /// decision logic, EWMA updates and bookkeeping.
  double run_unattributed_ms() const;
};

/// One scenario cell: a ScenarioRunner::run cell (`executions` > 0) or a
/// ScenarioRunner::run_single cell (`executions` == 0, fixed channel/scale).
struct ScenarioCell {
  javelin::rt::Strategy strategy = javelin::rt::Strategy::kInterpret;
  javelin::sim::Situation situation = javelin::sim::Situation::kUniform;
  int executions = 0;
  double scale = 0.0;
  javelin::radio::PowerClass channel = javelin::radio::PowerClass::kClass4;
};

/// Replay one scenario cell of `runner` (built with `base_seed`) under
/// `config`. `expected` is the real cell's fingerprint; `matched` reports
/// whether the replica reproduced it.
LayerTimes replay_scenario_cell(const javelin::sim::ScenarioRunner& runner,
                                std::uint64_t base_seed,
                                const ScenarioCell& cell,
                                const javelin::rt::ClientConfig& config,
                                const std::string& expected);

/// Replay rt::profile_application for `app` at runner seed `seed` (the seed
/// sim::ScenarioRunner passes to its constructor). `trace` (nullable) is
/// attached to the replicas' engines and compiles, for the obs counters.
LayerTimes replay_profile(const javelin::apps::App& app, std::uint64_t seed,
                          javelin::obs::TraceBuffer* trace);

/// Canonical text fingerprint of a cell's simulated result: energies and
/// time as %.17g, mode counts, compiles, remote compiles and fallbacks.
std::string fingerprint(const javelin::sim::StrategyResult& r);

/// Canonical text fingerprint of a deploy-time energy profile.
std::string fingerprint(const javelin::jvm::EnergyProfile& p);

}  // namespace perfbench
