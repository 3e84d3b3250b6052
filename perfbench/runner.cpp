// Host-performance benchmark runner for the javelin simulator.
//
//   perfbench_runner --workload grid_steady|cold_cells|deploy_profile|all
//                    --seed N --seconds S --trace 0|1
//                    [--workers K] [--tiny] [--reference-dir DIR]
//                    [--write-reference] [--manifest PATH] [--source-rev REV]
//
// Every workload is a closed loop over a fixed list of cells: a worker takes
// the next cell only when its previous one has finished. The timed phase
// keeps cycling through the list until --seconds have passed and then stops
// at the next end of a pass, so every run measures the same mix of cells.
// Set-up (building and profiling the ScenarioRunners) is timed on its own,
// several times, and reported as a median.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics: the same timed phase, then one
// traced pass over the cells that also replays each cell layer by layer from
// the outside (replay.hpp). The measured runs never attach a trace buffer.
//
// Correctness: every invocation is checked against the app's C++ golden
// model, every cell's simulated result is fingerprinted, repeated cells must
// reproduce their first fingerprint, and at --seed 0 (the paper's default
// scenario seed) every fingerprint must match the committed reference.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "sim/sweep.hpp"

using namespace javelin;
using perfbench::LayerTimes;
using perfbench::ScenarioCell;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int workers = 0;  ///< 0 = the workload's default.
  bool tiny = false;
  bool write_reference = false;
  std::string reference_dir;
  std::string manifest;
  std::string source_rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload W "
               "--seed N --seconds S --trace 0|1 [--workers K] [--tiny] "
               "[--reference-dir DIR] [--write-reference] [--manifest PATH] "
               "[--source-rev REV]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--workers") {
      o.workers = std::atoi(value().c_str());
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--write-reference") {
      o.write_reference = true;
    } else if (a == "--reference-dir") {
      o.reference_dir = value();
    } else if (a == "--manifest") {
      o.manifest = value();
    } else if (a == "--source-rev") {
      o.source_rev = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

// ---- rusage -------------------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mb = 0.0;  ///< High-water mark, not a delta.
  double minor_faults = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.maxrss_mb,
          a.minor_faults - b.minor_faults};
}

// ---- statistics -----------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- workloads -----------------------------------------------------------------

enum class Kind { kGrid, kCold, kProfile };

struct CellDef {
  std::size_t app = 0;     ///< Index into apps::registry().
  ScenarioCell scenario;   ///< kGrid / kCold.
  std::uint64_t profile_seed_index = 0;  ///< kProfile: derived-seed number.
  std::string key;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kGrid;
  int workers = 1;
  rt::ClientConfig config;
  std::vector<CellDef> cells;
  std::size_t pass = 0;  ///< Cells per pass: one mix of the workload.
};

constexpr int kGridExecutions = 25;
constexpr int kTinyGridExecutions = 3;
constexpr std::size_t kProfileSeeds = 4;
constexpr int kSetupReps = 3;
constexpr const char* kWorkloadNames[] = {"grid_steady", "cold_cells",
                                          "deploy_profile"};

/// The scenario seed a workload seed maps to: seed 0 is the paper's default.
std::uint64_t base_seed(std::uint64_t seed) {
  return sim::kDefaultScenarioSeed + seed;
}

/// deploy_profile's k-th derived runner seed.
std::uint64_t derived_profile_seed(std::uint64_t base, std::uint64_t k) {
  return base + 0x9e3779b97f4a7c15ULL * (k + 1);
}

std::vector<std::size_t> workload_apps(bool tiny) {
  if (tiny) return {0, 5};  // fe and sort.
  std::vector<std::size_t> all(apps::registry().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

Workload make_workload(const std::string& name, const Options& opt) {
  const auto& reg = apps::registry();
  const std::vector<std::size_t> app_ids = workload_apps(opt.tiny);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Workload w;
  w.name = name;
  if (name == "grid_steady") {
    // Fig 7: apps x situations x strategies, many executions per cell. Half
    // the cores, at most 4: with every core busy, neighbours on a shared
    // host widened the run-to-run spread from about 6% to about 15%.
    w.kind = Kind::kGrid;
    w.workers = static_cast<int>(std::clamp(hw / 2, 1u, 4u));
    const sim::Situation situations[] = {
        sim::Situation::kGoodChannelDominantSize,
        sim::Situation::kPoorChannelDominantSize, sim::Situation::kUniform};
    for (std::size_t a : app_ids)
      for (std::size_t s = 0; s < (opt.tiny ? 1 : 3); ++s)
        for (rt::Strategy st : rt::kAllStrategies) {
          CellDef c;
          c.app = a;
          c.scenario.strategy = st;
          c.scenario.situation = situations[s];
          c.scenario.executions = opt.tiny ? kTinyGridExecutions : kGridExecutions;
          c.key = reg[a].name + "/" + sim::situation_tag(situations[s]) + "/" +
                  rt::strategy_name(st);
          w.cells.push_back(std::move(c));
        }
  } else if (name == "cold_cells") {
    // Fig 6-style single invocations with the two kept DecisionPolicy knobs.
    w.kind = Kind::kCold;
    w.workers = 1;
    w.config.decision.static_seed = true;
    w.config.decision.range_bce = true;
    struct Variant {
      const char* label;
      rt::Strategy strategy;
      radio::PowerClass channel;
    };
    const Variant variants[] = {
        {"R@C1", rt::Strategy::kRemote, radio::PowerClass::kClass1},
        {"R@C2", rt::Strategy::kRemote, radio::PowerClass::kClass2},
        {"R@C3", rt::Strategy::kRemote, radio::PowerClass::kClass3},
        {"R@C4", rt::Strategy::kRemote, radio::PowerClass::kClass4},
        {"I", rt::Strategy::kInterpret, radio::PowerClass::kClass4},
        {"L1", rt::Strategy::kLocal1, radio::PowerClass::kClass4},
        {"L2", rt::Strategy::kLocal2, radio::PowerClass::kClass4},
        {"L3", rt::Strategy::kLocal3, radio::PowerClass::kClass4},
        {"AL", rt::Strategy::kAdaptiveLocal, radio::PowerClass::kClass4},
        {"AA", rt::Strategy::kAdaptiveAdaptive, radio::PowerClass::kClass4},
    };
    for (std::size_t a : app_ids)
      for (const bool large : {false, true}) {
        if (opt.tiny && large) continue;
        for (const Variant& v : variants) {
          CellDef c;
          c.app = a;
          c.scenario.strategy = v.strategy;
          c.scenario.channel = v.channel;
          c.scenario.scale = large ? reg[a].large_scale : reg[a].small_scale;
          c.key = reg[a].name + "/" + (large ? "large" : "small") + "/" +
                  v.label;
          w.cells.push_back(std::move(c));
        }
      }
  } else if (name == "deploy_profile") {
    // rt::profile_application per app over several derived seeds.
    w.kind = Kind::kProfile;
    w.workers = 1;
    for (std::uint64_t k = 0; k < (opt.tiny ? 1 : kProfileSeeds); ++k)
      for (std::size_t a : app_ids) {
        CellDef c;
        c.app = a;
        c.profile_seed_index = k;
        c.key = reg[a].name + "#" + std::to_string(k);
        w.cells.push_back(std::move(c));
      }
  } else {
    usage(("unknown workload " + name).c_str());
  }
  // deploy_profile's pass is one derived seed over every app; the other
  // workloads' pass is their whole grid.
  w.pass = w.kind == Kind::kProfile ? app_ids.size() : w.cells.size();
  if (opt.workers > 0) w.workers = opt.workers;
  return w;
}

using Runners = std::vector<std::shared_ptr<const sim::ScenarioRunner>>;

/// One real cell run: its fingerprint and whether every check passed.
struct CellRun {
  std::string fingerprint;
  bool ok = false;
};

CellRun run_cell(const Workload& w, const Runners& runners,
                 std::uint64_t base, const CellDef& c,
                 obs::TraceBuffer* trace) {
  CellRun out;
  try {
    if (w.kind == Kind::kProfile) {
      const sim::ScenarioRunner r(apps::registry()[c.app],
                                  derived_profile_seed(base, c.profile_seed_index));
      out.fingerprint = perfbench::fingerprint(r.profile());
      out.ok = r.profile().valid;
      return out;
    }
    const sim::ScenarioRunner& r = *runners[c.app];
    const ScenarioCell& s = c.scenario;
    const sim::StrategyResult res =
        w.kind == Kind::kGrid
            ? r.run(s.strategy, s.situation, s.executions, /*verify=*/true,
                    &w.config, trace)
            : r.run_single(s.strategy, s.scale, s.channel, /*verify=*/true,
                           &w.config, trace);
    out.fingerprint = perfbench::fingerprint(res);
    out.ok = res.all_correct && res.executions > 0;
  } catch (const std::exception& e) {
    out.fingerprint = std::string("error: ") + e.what();
    out.ok = false;
  }
  return out;
}

/// Fingerprint bookkeeping: the committed reference (seed 0) or, failing
/// that, the first run of each cell; every later run must match.
class Checker {
 public:
  explicit Checker(std::vector<std::string> expected)
      : expected_(std::move(expected)) {}

  /// Record a run of cell `i`; returns whether it passes.
  bool check(std::size_t i, const CellRun& run) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string& want = expected_[i];
    if (want.empty()) want = run.fingerprint;
    return run.ok && run.fingerprint == want;
  }

  std::string expected(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return expected_[i];
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> expected_;
};

std::string reference_path(const Options& opt, const std::string& workload) {
  return opt.reference_dir + "/" + workload + ".txt";
}

/// Reference fingerprints for seed 0 ("key<TAB>fingerprint" lines), or empty
/// strings when this run has none to compare against. Throws when a full
/// seed-0 run finds the reference file, or one of its cells, missing.
std::vector<std::string> load_reference(const Options& opt, const Workload& w) {
  std::vector<std::string> out(w.cells.size());
  if (opt.seed != 0 || opt.tiny || opt.reference_dir.empty() ||
      opt.write_reference)
    return out;
  std::ifstream in(reference_path(opt, w.name));
  if (!in) throw Error("no reference file " + reference_path(opt, w.name));
  std::map<std::string, std::string> by_key;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab != std::string::npos)
      by_key[line.substr(0, tab)] = line.substr(tab + 1);
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const auto it = by_key.find(w.cells[i].key);
    if (it == by_key.end())
      throw Error("reference has no cell " + w.cells[i].key);
    out[i] = it->second;
  }
  return out;
}

void write_reference(const Options& opt, const Workload& w,
                     const Checker& checker) {
  const std::string path = reference_path(opt, w.name);
  std::ofstream out(path);
  for (std::size_t i = 0; i < w.cells.size(); ++i)
    out << w.cells[i].key << '\t' << checker.expected(i) << '\n';
  if (!out) throw Error("cannot write " + path);
  std::fprintf(stderr, "[perfbench] wrote %s\n", path.c_str());
}

// ---- the closed loop ------------------------------------------------------------

struct LoopStats {
  double wall_s = 0.0;
  std::size_t cells = 0;
  std::size_t failed = 0;
  double busy_s = 0.0;  ///< Summed over workers.
  int workers = 1;
  std::vector<double> cell_ms;      ///< Every cell's host wall time.
  std::vector<double> pass_rates;   ///< Cells per second of each pass.
};

/// Closed loop over `n` cells on `engine`'s workers: each worker takes the
/// next index when its previous cell is done. Dispensing stops at the first
/// multiple of `pass` (cells per pass) reached once `seconds` have passed and
/// at least `min_cells` were handed out. `body(i)` runs cell `i % n` and
/// returns whether it passed.
LoopStats closed_loop(sim::SweepEngine& engine, std::size_t n, std::size_t pass,
                      std::size_t min_cells, double seconds,
                      const std::function<bool(std::size_t)>& body) {
  std::mutex mu;
  std::size_t next = 0;
  bool stopped = false;
  const auto t0 = Clock::now();
  auto take = [&](std::size_t& idx) {
    std::lock_guard<std::mutex> lock(mu);
    if (stopped) return false;
    if (next >= std::max<std::size_t>(min_cells, 1) && next % pass == 0 &&
        seconds_since(t0) >= seconds) {
      stopped = true;
      return false;
    }
    idx = next++;
    return true;
  };

  struct CellTime {
    std::size_t index = 0;  ///< Dispense order.
    double start_s = 0.0;   ///< Since the loop started.
    double end_s = 0.0;
  };
  struct WorkerLog {
    std::vector<CellTime> cells;
    std::size_t failed = 0;
  };
  std::vector<WorkerLog> logs(static_cast<std::size_t>(engine.jobs()));
  std::vector<std::future<void>> done;
  for (WorkerLog& log : logs)
    done.push_back(engine.pool().submit([&take, &body, &log, n, t0] {
      std::size_t idx = 0;
      while (take(idx)) {
        const double start = seconds_since(t0);
        // A throwing cell counts as failed; letting it escape would end this
        // worker while the others still use the loop's locals.
        bool ok = false;
        try {
          ok = body(idx % n);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[perfbench] cell %zu: %s\n", idx % n, e.what());
        }
        log.cells.push_back({idx, start, seconds_since(t0)});
        if (!ok) ++log.failed;
      }
    }));
  for (auto& f : done) f.get();

  LoopStats s;
  s.wall_s = seconds_since(t0);
  s.workers = engine.jobs();
  std::vector<CellTime> all;
  for (const WorkerLog& log : logs) {
    s.failed += log.failed;
    all.insert(all.end(), log.cells.begin(), log.cells.end());
  }
  s.cells = all.size();
  std::sort(all.begin(), all.end(),
            [](const CellTime& a, const CellTime& b) { return a.index < b.index; });
  for (std::size_t p = 0; p * pass < all.size(); ++p) {
    // A pass spans its first start to its last finish; with several
    // workers the next pass's first cells overlap its tail.
    double first = 1e300, last = 0.0;
    for (std::size_t i = p * pass; i < (p + 1) * pass; ++i) {
      first = std::min(first, all[i].start_s);
      last = std::max(last, all[i].end_s);
      s.cell_ms.push_back((all[i].end_s - all[i].start_s) * 1e3);
      s.busy_s += all[i].end_s - all[i].start_s;
    }
    s.pass_rates.push_back(static_cast<double>(pass) / (last - first));
  }
  return s;
}

// ---- metrics ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, const std::string& prefix) {
  std::string s;
  for (const Metric& m : ms) {
    if (!s.empty()) s += ", ";
    s += "\"" + prefix + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s;
}

void print_table(const Report& r, std::size_t samples) {
  std::fprintf(stderr, "[perfbench] %s: %zu cells attempted, %zu failed "
               "(failed_cell_ratio %.6g), %zu timed samples\n",
               r.workload.c_str(), r.attempted, r.failed,
               r.attempted ? static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted)
                           : 0.0,
               samples);
  for (const Metric& m : r.metrics)
    std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
}

// ---- manifest ------------------------------------------------------------------

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

constexpr const char* kPinnedEnv[] = {"JAVELIN_DISPATCH", "JAVELIN_NEXEC",
                                      "JAVELIN_SHADOW"};

void write_manifest(const Options& opt, const std::vector<Workload>& ws) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  std::string s = "{\"source_rev\": \"" + opt.source_rev + "\", \"host\": \"" +
                  host + "\", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                  "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"seed\": " +
                  std::to_string(opt.seed) + ", \"scenario_seed\": " +
                  std::to_string(base_seed(opt.seed)) + ", \"seconds\": " +
                  json_number(opt.seconds) + ", \"trace\": " +
                  (opt.trace ? "true" : "false") + ", \"tiny\": " +
                  (opt.tiny ? "true" : "false") + ", \"workloads\": {";
  for (std::size_t i = 0; i < ws.size(); ++i)
    s += (i ? ", \"" : "\"") + ws[i].name + "\": {\"workers\": " +
         std::to_string(ws[i].workers) + ", \"cells\": " +
         std::to_string(ws[i].cells.size()) + "}";
  s += "}, \"env\": {";
  const char* vars[] = {"JAVELIN_JOBS", "JAVELIN_DISPATCH", "JAVELIN_NEXEC",
                        "JAVELIN_SHADOW"};
  for (std::size_t i = 0; i < std::size(vars); ++i)
    s += std::string(i ? ", \"" : "\"") + vars[i] + "\": \"" +
         env_or(vars[i], "") + "\"";
  s += "}}";
  std::fprintf(stderr, "[perfbench] manifest %s\n", s.c_str());
  if (!opt.manifest.empty()) {
    std::ofstream out(opt.manifest);
    out << s << '\n';
  }
}

// ---- one workload ------------------------------------------------------------------

Report run_workload(const Workload& w, const Options& opt) {
  const auto& reg = apps::registry();
  const std::uint64_t base = base_seed(opt.seed);
  const std::size_t n = w.cells.size();
  sim::SweepEngine engine(w.workers);  // Explicit: JAVELIN_JOBS is ignored.
  Report rep;
  rep.workload = w.name;

  // Set-up: build and profile one runner per app, kSetupReps times; keep the
  // last set. Parallel over apps on the workload's workers.
  std::vector<double> setup_s;
  Runners runners;
  const std::size_t n_setup = opt.tiny ? 1 : kSetupReps;
  const Usage u_setup0 = usage_now();
  for (std::size_t r = 0; r < n_setup; ++r) {
    const auto t0 = Clock::now();
    runners = engine.map<std::shared_ptr<const sim::ScenarioRunner>>(
        reg.size(), [&reg, base](std::size_t i) {
          return std::make_shared<const sim::ScenarioRunner>(reg[i], base);
        });
    setup_s.push_back(seconds_since(t0));
  }
  const Usage u_setup = usage_now() - u_setup0;

  Checker checker(load_reference(opt, w));

  // Timed phase, tracing off.
  const Usage u0 = usage_now();
  LoopStats loop = closed_loop(
      engine, n, w.pass, opt.write_reference || opt.trace ? n : 0,
      opt.seconds,
      [&](std::size_t i) {
        return checker.check(i,
                             run_cell(w, runners, base, w.cells[i], nullptr));
      });
  const Usage u = usage_now() - u0;
  std::string rates;
  for (double r : loop.pass_rates) rates += " " + json_number(r);
  std::fprintf(stderr, "[perfbench] %s: %zu passes of %zu cells in %.3f s, "
               "cells/s per pass:%s\n", w.name.c_str(), loop.pass_rates.size(),
               w.pass, loop.wall_s, rates.c_str());
  rep.attempted = loop.cells;
  rep.failed = loop.failed;
  const double cells = static_cast<double>(std::max<std::size_t>(1, loop.cells));

  if (!opt.trace) {
    rep.metrics = {
        {"cells_per_s", quantile(loop.pass_rates, 0.5), "1/s"},
        {"cell_ms_p50", quantile(loop.cell_ms, 0.5), "ms"},
        {"cell_ms_p90", quantile(loop.cell_ms, 0.9), "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"cpu_s_per_cell", (u.user_s + u.sys_s) / cells, "s"},
        {"peak_rss_mb", u.maxrss_mb, "MB"},
    };
  } else {
    // Untraced baseline of each cell: its mean time in the timed phase.
    std::vector<double> untraced_cell_ms(n, 0.0);
    std::vector<int> untraced_runs(n, 0);
    for (std::size_t j = 0; j < loop.cell_ms.size(); ++j) {
      untraced_cell_ms[j % n] += loop.cell_ms[j];
      ++untraced_runs[j % n];
    }
    for (std::size_t i = 0; i < n; ++i)
      untraced_cell_ms[i] /= std::max(1, untraced_runs[i]);

    // Traced pass: one pass over the cells on the same workers. Each cell
    // runs with a trace buffer attached and is then replayed layer by layer
    // from the outside. rt::profile_application has no trace hooks, so a
    // deploy_profile cell's traced run is its replay.
    obs::TraceCollector collector;
    std::vector<obs::TraceBuffer*> buffers(n);
    for (std::size_t i = 0; i < n; ++i)
      buffers[i] = collector.make_buffer(w.cells[i].key, i);
    std::mutex mu;
    LayerTimes layers;
    double untraced_ms = 0.0, traced_ms = 0.0;
    std::size_t matched = 0, trace_failed = 0;
    closed_loop(engine, n, n, n, 0.0, [&](std::size_t i) {
      const CellDef& c = w.cells[i];
      const auto t0 = Clock::now();
      LayerTimes lt;
      bool ok = true;
      if (w.kind == Kind::kProfile)
        lt = perfbench::replay_profile(
            reg[c.app], derived_profile_seed(base, c.profile_seed_index),
            buffers[i]);
      else
        ok = checker.check(i, run_cell(w, runners, base, c, buffers[i]));
      const double t_traced = seconds_since(t0) * 1e3;
      if (w.kind != Kind::kProfile)
        lt = perfbench::replay_scenario_cell(*runners[c.app], base, c.scenario,
                                             w.config, checker.expected(i));
      std::lock_guard<std::mutex> lock(mu);
      layers += lt;
      untraced_ms += untraced_cell_ms[i];
      traced_ms += t_traced;
      if (lt.matched) ++matched;
      if (!ok) ++trace_failed;
      return ok;
    });
    if (w.kind != Kind::kProfile) rep.attempted += n;
    rep.failed += trace_failed;

    // Deploy-time profiling per app: the cells themselves on deploy_profile,
    // else one ScenarioRunner construction per app.
    std::vector<double> profile_ms(reg.size(), 0.0);
    std::vector<int> profile_n(reg.size(), 0);
    for (std::size_t a = 0; a < reg.size(); ++a) {
      if (w.kind == Kind::kProfile) {
        for (std::size_t i = 0; i < n; ++i)
          if (w.cells[i].app == a) {
            profile_ms[a] += untraced_cell_ms[i];
            ++profile_n[a];
          }
      } else {
        const auto t0 = Clock::now();
        const sim::ScenarioRunner r(reg[a], base);
        profile_ms[a] = seconds_since(t0) * 1e3;
        profile_n[a] = 1;
      }
    }

    // obs export of the traced pass.
    const auto te = Clock::now();
    const std::string json = obs::chrome_trace_json(collector);
    const std::string prom = obs::build_metrics(collector).prometheus_text();
    const double export_ms = seconds_since(te) * 1e3;
    if (!obs::json_valid(json) || prom.empty()) ++rep.failed;

    auto counter = [&](std::initializer_list<obs::Counter> cs) {
      double total = 0.0;
      for (const obs::TraceBuffer* b : collector.ordered())
        for (obs::Counter c : cs) total += static_cast<double>(b->counter(c));
      return total / static_cast<double>(n);
    };
    const double dn = static_cast<double>(n);
    const double ms_per_cell_s = 1e3 / cells;  // seconds -> ms per cell
    rep.metrics = {
        {"rt.device_new_ms", layers.device_new_ms / dn, "ms/cell"},
        {"mem.minor_faults_per_cell", u.minor_faults / cells, "count/cell"},
        {"mem.sys_s_per_cell", u.sys_s / cells, "s/cell"},
        {"mem.user_s_per_cell", u.user_s / cells, "s/cell"},
        {"rt.server_deploy_ms", layers.server_deploy_ms / dn, "ms/cell"},
        {"rt.client_deploy_ms", layers.client_deploy_ms / dn, "ms/cell"},
        {"jvm.link_ms", layers.link_ms / dn, "ms/cell"},
        {"analysis.facts_ms", layers.facts_ms / dn, "ms/cell"},
        {"jit.compile_ms.L1", layers.compile_ms[0] / dn, "ms/cell"},
        {"jit.compile_ms.L2", layers.compile_ms[1] / dn, "ms/cell"},
        {"jit.compile_ms.L3", layers.compile_ms[2] / dn, "ms/cell"},
        {"jit.compiles", counter({obs::Counter::kJitCompiles}), "count/cell"},
        {"jit.ir_instrs_in", counter({obs::Counter::kJitIrInstrsIn}),
         "count/cell"},
        {"jit.ir_instrs_out", counter({obs::Counter::kJitIrInstrsOut}),
         "count/cell"},
        {"jvm.interp_ms", layers.interp_ms / dn, "ms/cell"},
        {"jvm.interp_runs",
         counter({obs::Counter::kInterpRunsDecoded,
                  obs::Counter::kInterpRunsUndecoded}),
         "count/cell"},
        {"isa.native_ms", layers.native_ms / dn, "ms/cell"},
        {"isa.native_calls", counter({obs::Counter::kEngineNativeCalls}),
         "count/cell"},
        {"net.serialize_ms", layers.serialize_ms / dn, "ms/cell"},
        {"net.deserialize_ms", layers.deserialize_ms / dn, "ms/cell"},
        {"net.tx_bytes", counter({obs::Counter::kRadioTxBytes}), "bytes/cell"},
        {"net.rx_bytes", counter({obs::Counter::kRadioRxBytes}), "bytes/cell"},
        {"rt.server_invoke_ms", layers.server_invoke_ms / dn, "ms/cell"},
        {"rt.server_compile_ms", layers.server_compile_ms / dn, "ms/cell"},
        {"rt.run_ms", layers.run_ms / dn, "ms/cell"},
        {"rt.run_unattributed_ms", layers.run_unattributed_ms() / dn,
         "ms/cell"},
        {"sim.queue_wait_ms",
         (loop.wall_s * loop.workers - loop.busy_s) * ms_per_cell_s,
         "ms/cell"},
        {"sim.worker_busy_ratio", loop.busy_s / (loop.wall_s * loop.workers),
         "ratio"},
        {"sim.cells_timed", static_cast<double>(loop.cells), "count"},
        {"setup.cpu_s", (u_setup.user_s + u_setup.sys_s) / n_setup, "s"},
        {"setup.minor_faults", u_setup.minor_faults / n_setup, "count"},
        {"obs.export_ms", export_ms / dn, "ms/cell"},
        {"obs.trace_overhead_ratio",
         untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0, "ratio"},
        {"trace.coverage_ratio",
         layers.cell_ms > 0.0 ? layers.covered_ms / layers.cell_ms : 0.0,
         "ratio"},
        {"trace.replay_match_ratio", static_cast<double>(matched) / dn,
         "ratio"},
    };
    double profile_sum = 0.0;
    for (std::size_t a = 0; a < reg.size(); ++a) {
      const double mean = profile_n[a] ? profile_ms[a] / profile_n[a] : 0.0;
      profile_sum += mean;
      rep.metrics.push_back({"rt.profile_ms." + reg[a].name, mean, "ms/app"});
    }
    rep.metrics.push_back({"rt.profile_ms",
                           profile_sum / static_cast<double>(reg.size()),
                           "ms/app"});
  }

  if (opt.write_reference) write_reference(opt, w, checker);
  rep.correct = rep.failed == 0;
  print_table(rep, loop.cells);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // The pinned program: these variables silently swap the interpreter loop,
  // the native loop or the heap checks, so a run with any of them set is not
  // the benchmark's program.
  for (const char* var : kPinnedEnv)
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench_runner: %s is set; unset it to run the "
                   "benchmark\n", var);
      return 3;
    }

  std::vector<std::string> names;
  if (opt.workload == "all")
    names.assign(std::begin(kWorkloadNames), std::end(kWorkloadNames));
  else
    names.push_back(opt.workload);
  std::vector<Workload> workloads;
  for (const std::string& name : names) workloads.push_back(make_workload(name, opt));
  write_manifest(opt, workloads);

  std::vector<Report> reports;
  try {
    for (const Workload& w : workloads) reports.push_back(run_workload(w, opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  Report total;
  for (const Report& r : reports) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.correct = total.correct && r.correct;
  }
  std::string metrics;
  for (const Report& r : reports) {
    const std::string m = metrics_json(
        r.metrics, reports.size() > 1 ? r.workload + "." : std::string());
    metrics += (metrics.empty() ? "" : ", ") + m;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              total.correct ? "true" : "false", total.attempted, total.failed,
              metrics.c_str());
  return 0;
}
