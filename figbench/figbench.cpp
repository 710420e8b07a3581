// figbench: the in-process harness behind figbench/run.py. Each subcommand
// prints one JSON object on stdout.
//
//   figbench provenance
//   figbench prefill --family F --seed S --scale N --threads T --store DIR
//   figbench sweep   --family F --sampling M --seed S --scale N --threads T
//                    --store DIR [--cold] [--checkpoint PATH]
//   figbench trace   --family F --sampling M --seed S --scale N --store DIR
//                    [--cold --reference-store DIR] [--checkpoint PATH]
//                    [--configs i,j,...]
//
// Common: --suite a,b,... (default: the paper suite). F is "nmm" (Fig. 1-2:
// PCM main memory, N1-N9) or "4lc" (Fig. 3-4: eDRAM and HMC L4, EH1-EH8); M
// is "full" or "simpoint".
//
// `sweep` times the figure sweep through sim::ExperimentRunner with no
// tracing. `trace` re-enacts the same work serially through the layers'
// public functions, timing each call from outside, and prints the results
// it computed so run.py can check them against the sweep bit for bit.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "hms/common/error.hpp"
#include "hms/common/string_util.hpp"
#include "hms/designs/configs.hpp"
#include "hms/model/report.hpp"
#include "hms/sim/checkpoint.hpp"
#include "hms/sim/experiment.hpp"
#include "hms/sim/sampling.hpp"
#include "hms/sim/simulator.hpp"
#include "hms/trace/chunked_trace.hpp"
#include "hms/trace/interval_profile.hpp"
#include "hms/trace/sink.hpp"
#include "hms/trace/trace_store.hpp"
#include "hms/workloads/registry.hpp"

namespace fs = std::filesystem;
using namespace hms;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// -- Minimal JSON output -----------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += items[i];
  }
  return out;
}

std::string array5(double a, double b, double c, double d, double e) {
  return "[" + join({num(a), num(b), num(c), num(d), num(e)}) + "]";
}

std::string normalized_json(const model::NormalizedReport& n) {
  return array5(n.runtime, n.dynamic, n.leakage, n.total_energy, n.edp);
}

std::string spread_json(const sim::MetricSpread& s) {
  return array5(s.runtime, s.dynamic, s.leakage, s.total_energy, s.edp);
}

/// One sweep's results: per config the suite means and spreads, the failed
/// cells, and per kernel the normalized values and spreads.
std::string results_json(const std::string& label,
                         const std::vector<sim::SuiteResult>& results) {
  std::vector<std::string> configs;
  for (const auto& r : results) {
    std::vector<std::string> cells;
    std::vector<std::string> spreads;
    for (const auto& w : r.per_workload) {
      cells.push_back(quote(w.report.workload) + ":" +
                      normalized_json(w.normalized));
      spreads.push_back(quote(w.report.workload) + ":" +
                        spread_json(w.spread));
    }
    std::vector<std::string> failures;
    for (const auto& f : r.failures) {
      failures.push_back(quote(f.workload + ": " + f.error));
    }
    configs.push_back(
        "{\"name\":" + quote(r.config_name) +
        ",\"partial\":" + (r.partial ? "true" : "false") +
        ",\"sampled\":" + (r.sampled ? "true" : "false") + ",\"suite\":" +
        array5(r.runtime, r.dynamic, r.leakage, r.total_energy, r.edp) +
        ",\"suite_spread\":" + spread_json(r.spread) + ",\"failures\":[" +
        join(failures) + "],\"cells\":{" + join(cells) + "},\"spreads\":{" +
        join(spreads) + "}}");
  }
  return "{\"label\":" + quote(label) + ",\"configs\":[" + join(configs) +
         "]}";
}

// -- Options -----------------------------------------------------------------

struct Options {
  std::string command;
  std::string family;
  sim::SamplingMode sampling = sim::SamplingMode::Full;
  std::uint64_t seed = 42;
  std::uint64_t scale = 128;
  unsigned threads = 1;
  std::vector<std::string> suite;
  std::string store;
  std::string reference_store;
  std::string checkpoint;
  std::vector<std::size_t> configs;  ///< trace subset; empty = all
  unsigned warmup = 0;   ///< untimed sweeps before the timed ones
  double seconds = 0;    ///< timed sweeps start while less have passed
  bool cold = false;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 18) {
    throw ConfigError(flag + ": expected a whole number, got \"" + v + "\"");
  }
  return std::stoull(v);
}

Options parse(int argc, char** argv) {
  if (argc < 2) throw ConfigError("usage: figbench <command> [options]");
  Options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--cold") {
      o.cold = true;
      continue;
    }
    if (i + 1 >= argc) throw ConfigError(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--family") {
      if (v != "nmm" && v != "4lc") {
        throw ConfigError("--family: expected nmm or 4lc, got \"" + v + "\"");
      }
      o.family = v;
    } else if (flag == "--sampling") {
      if (v != "full" && v != "simpoint") {
        throw ConfigError("--sampling: expected full or simpoint, got \"" +
                          v + "\"");
      }
      o.sampling = v == "full" ? sim::SamplingMode::Full
                               : sim::SamplingMode::SimPoint;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--scale") {
      o.scale = parse_u64(flag, v);
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(parse_u64(flag, v));
      if (o.threads == 0) throw ConfigError("--threads: must be >= 1");
    } else if (flag == "--suite") {
      for (const auto& name : split(v, ',')) o.suite.emplace_back(name);
    } else if (flag == "--store") {
      o.store = v;
    } else if (flag == "--reference-store") {
      o.reference_store = v;
    } else if (flag == "--checkpoint") {
      o.checkpoint = v;
    } else if (flag == "--warmup") {
      o.warmup = static_cast<unsigned>(parse_u64(flag, v));
    } else if (flag == "--seconds") {
      std::size_t end = 0;
      try {
        o.seconds = std::stod(v, &end);
      } catch (const std::exception&) {
        end = 0;
      }
      if (end == 0 || end != v.size() || !(o.seconds >= 0)) {
        throw ConfigError("--seconds: expected a number >= 0, got \"" + v + "\"");
      }
    } else if (flag == "--configs") {
      for (const auto& c : split(v, ',')) o.configs.push_back(parse_u64(flag, c));
    } else {
      throw ConfigError("unknown option " + flag);
    }
  }
  if (o.command != "provenance") {
    if (o.family.empty()) throw ConfigError("--family is required");
    if (o.store.empty()) throw ConfigError("--store is required");
  }
  return o;
}

sim::ExperimentConfig make_config(const Options& o) {
  sim::ExperimentConfig cfg;
  cfg.scale_divisor = o.scale;
  cfg.footprint_divisor = o.scale;
  cfg.seed = o.seed;
  cfg.suite = o.suite;
  cfg.threads = o.threads;
  cfg.replay_mode = sim::ReplayMode::ChunkMajor;
  cfg.sampling = o.sampling;
  cfg.trace_cache_dir = o.store;
  cfg.checkpoint_path = o.checkpoint;
  return cfg;
}

// -- The figure sweeps -------------------------------------------------------

/// One figure sweep of a family: its label, config names, and how to build
/// a config's back (the same factory call ExperimentRunner's sweep uses),
/// and the timed call itself: what bench_fig1_2_nmm / bench_fig3_4_4lc run.
struct SweepSpec {
  std::string label;
  std::vector<std::string> config_names;
  std::function<std::unique_ptr<cache::MemoryHierarchy>(
      const designs::DesignFactory&, std::size_t, std::uint64_t)>
      make_back;
  std::function<std::vector<sim::SuiteResult>(sim::ExperimentRunner&)> run;
};

std::vector<SweepSpec> family_sweeps(const std::string& family) {
  std::vector<SweepSpec> out;
  if (family == "nmm") {
    SweepSpec s;
    s.label = "nmm:" + std::string(mem::to_string(mem::Technology::PCM));
    for (const auto& c : designs::n_configs()) s.config_names.push_back(c.name);
    s.make_back = [](const designs::DesignFactory& f, std::size_t c,
                     std::uint64_t footprint) {
      return f.nvm_main_memory_back(designs::n_configs()[c],
                                    mem::Technology::PCM, footprint);
    };
    s.run = [](sim::ExperimentRunner& runner) {
      return runner.nmm_sweep(mem::Technology::PCM, designs::n_configs());
    };
    out.push_back(std::move(s));
    return out;
  }
  for (const auto l4 : {mem::Technology::eDRAM, mem::Technology::HMC}) {
    SweepSpec s;
    s.label = "4lc:" + std::string(mem::to_string(l4));
    for (const auto& c : designs::eh_configs()) s.config_names.push_back(c.name);
    s.make_back = [l4](const designs::DesignFactory& f, std::size_t c,
                       std::uint64_t footprint) {
      return f.four_level_cache_back(designs::eh_configs()[c], l4, footprint);
    };
    s.run = [l4](sim::ExperimentRunner& runner) {
      return runner.four_lc_sweep(l4, designs::eh_configs());
    };
    out.push_back(std::move(s));
  }
  return out;
}

workloads::WorkloadParams params_for(const sim::ExperimentConfig& cfg,
                                     const std::string& workload) {
  // Same sizing probe as ExperimentRunner::capture_workload.
  auto probe = workloads::make_workload(
      workload, workloads::WorkloadParams{1ull << 20, cfg.seed, 1});
  return cfg.params_for(probe->info());
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// -- provenance / prefill / sweep -------------------------------------------

int cmd_provenance() {
  std::cout << "{\"build_type\":" << quote(FIGBENCH_BUILD_TYPE)
            << ",\"compiler\":" << quote(FIGBENCH_COMPILER) << "}\n";
  return 0;
}

/// Warm-store set-up: empties the store and captures every suite kernel
/// into it on --threads workers, through the same capture_front_cached call
/// the sweep's warm-up makes.
int cmd_prefill(const Options& o) {
  const auto t0 = Clock::now();
  reset_dir(o.store);
  const sim::ExperimentRunner runner(make_config(o));
  const trace::TraceStore store(o.store);
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(runner.suite().size());
  const auto worker = [&] {
    for (std::size_t w = next++; w < runner.suite().size(); w = next++) {
      try {
        const auto& name = runner.suite()[w];
        (void)sim::capture_front_cached(name, params_for(runner.config(), name),
                                        runner.factory(), &store);
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    }
  };
  std::vector<std::jthread> pool;
  for (unsigned t = 0; t < o.threads; ++t) pool.emplace_back(worker);
  pool.clear();  // joins
  for (const auto& e : errors) {
    if (!e.empty()) throw SimulationError("prefill: " + e);
  }
  std::cout << "{\"prefill_s\":" << num(since(t0)) << "}\n";
  return 0;
}

/// Set-ups per sweep process: each empties the store (cold), resets the
/// checkpoint and constructs the runner; setup_s is their median, since a
/// single set-up takes well under a millisecond.
constexpr int kSetups = 21;

void reset_runner(const Options& o, std::optional<sim::ExperimentRunner>& runner) {
  runner.reset();
  if (o.cold) reset_dir(o.store);
  if (!o.checkpoint.empty()) fs::remove(o.checkpoint);
  runner.emplace(make_config(o));
}

/// Runs --warmup untimed sweeps, then timed sweeps while less than
/// --seconds have passed since the first timed one (at least one), each on
/// a freshly set-up runner. Prints one JSON line per sweep; a warm-up line
/// has "warmup":true.
int cmd_sweep(const Options& o) {
  std::vector<double> setups;
  std::optional<sim::ExperimentRunner> runner;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    const auto t0 = Clock::now();
    reset_runner(o, runner);
    setups.push_back(since(t0));
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[kSetups / 2];

  const auto specs = family_sweeps(o.family);
  std::optional<Clock::time_point> timed_start;
  for (unsigned r = 0;; ++r) {
    const bool warmup = r < o.warmup;
    if (!warmup) {
      if (!timed_start) {
        timed_start = Clock::now();
      } else if (since(*timed_start) >= o.seconds) {
        break;
      }
    }
    if (r > 0) reset_runner(o, runner);
    std::vector<std::vector<sim::SuiteResult>> results;
    const double cpu0 = cpu_seconds();
    const auto s0 = Clock::now();
    for (const auto& spec : specs) results.push_back(spec.run(*runner));
    const double sweep_s = since(s0);
    const double cpu_s = cpu_seconds() - cpu0;

    std::vector<std::string> sweeps;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sweeps.push_back(results_json(specs[i].label, results[i]));
    }
    std::cout << "{\"warmup\":" << (warmup ? "true" : "false")
              << ",\"setup_s\":" << num(setup_s) << ",\"sweep_s\":"
              << num(sweep_s) << ",\"cpu_s\":" << num(cpu_s)
              << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"sweeps\":["
              << join(sweeps) << "]}" << std::endl;
  }
  return 0;
}

// -- trace: the serial re-enactment ------------------------------------------

/// Discards decoded batches: replaying into it times decode alone.
class DiscardBatches final : public trace::BatchAccessSink {
 public:
  void access(const trace::MemoryAccess&) override {}
  void access_batch(std::span<const trace::MemoryAccess>) override {}
};

/// Re-encodes a decoded stream the way capture does (one record at a time,
/// with an interval profile attached), timing only the encoding.
class TimedEncoder final : public trace::BatchAccessSink {
 public:
  TimedEncoder() { buffer_.attach_interval_profile(&profile_); }
  TimedEncoder(const TimedEncoder&) = delete;
  TimedEncoder& operator=(const TimedEncoder&) = delete;

  void access(const trace::MemoryAccess& a) override {
    access_batch({&a, 1});
  }
  void access_batch(std::span<const trace::MemoryAccess> batch) override {
    const auto t0 = Clock::now();
    for (const auto& a : batch) buffer_.access(a);
    seconds_ += since(t0);
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] const trace::ChunkedTraceBuffer& buffer() const noexcept {
    return buffer_;
  }

 private:
  trace::IntervalProfile profile_;
  trace::ChunkedTraceBuffer buffer_;
  double seconds_ = 0;
};

/// Accumulated spans and counts of one traced run.
struct Trace {
  // Spans (seconds), disjoint; their sum is the phase sum.
  double store_load = 0, capture = 0, gen = 0, encode = 0, decode = 0,
         store_append = 0, plan = 0, back_build = 0, base = 0, grid = 0,
         model = 0, checkpoint = 0;
  // Decode work inside the grid replays, estimated per cell from the
  // measured full decode pass and the cell's replayed share.
  double grid_decode = 0;
  std::uint64_t refs = 0, store_hits = 0, store_misses = 0, store_bytes = 0,
                residual_refs = 0, encoded_bytes = 0, grid_refs = 0,
                plan_reps = 0, replayed_accesses = 0, total_accesses = 0,
                evals = 0, appends = 0;
  std::uint64_t back_hits = 0, back_misses = 0, nvm_write_bytes = 0;

  [[nodiscard]] double phase_sum() const {
    return store_load + capture + gen + encode + decode + store_append + plan +
           back_build + base + grid + model + checkpoint;
  }
};

template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += since(t0);
  } else {
    auto r = f();
    acc += since(t0);
    return r;
  }
}

/// ExperimentRunner::finish_result, re-enacted through model::evaluate /
/// normalize (the representatives' evaluations give a sampled cell its
/// spread).
sim::WorkloadResult finish(Trace& tr, const std::string& design,
                           const std::string& workload,
                           const cache::HierarchyProfile& profile,
                           const std::vector<sim::RepEstimate>& reps,
                           const model::DesignReport& base,
                           const model::ReferenceAnchor& anchor) {
  const auto t0 = Clock::now();
  sim::WorkloadResult result;
  result.report = model::evaluate(design, workload, profile, anchor);
  result.normalized = model::normalize(result.report, base);
  ++tr.evals;
  if (!reps.empty()) {
    result.sampled = true;
    std::vector<std::array<double, 5>> vals;
    double share_sum = 0;
    for (const auto& rep : reps) {
      const auto n = model::normalize(
          model::evaluate(design, workload, rep.profile, anchor), base);
      ++tr.evals;
      vals.push_back({n.runtime, n.dynamic, n.leakage, n.total_energy, n.edp});
      share_sum += rep.share;
    }
    std::array<double, 5> mean{};
    for (std::size_t r = 0; r < reps.size(); ++r) {
      for (std::size_t m = 0; m < 5; ++m) mean[m] += reps[r].share * vals[r][m];
    }
    std::array<double, 5> var{};
    for (std::size_t r = 0; r < reps.size(); ++r) {
      for (std::size_t m = 0; m < 5; ++m) {
        const double d = vals[r][m] - mean[m] / share_sum;
        var[m] += reps[r].share * d * d;
      }
    }
    for (auto& v : var) v /= share_sum;
    result.spread = {std::sqrt(var[0]), std::sqrt(var[1]), std::sqrt(var[2]),
                     std::sqrt(var[3]), std::sqrt(var[4])};
  }
  tr.model += since(t0);
  return result;
}

/// ExperimentRunner::average, re-enacted: suite means in suite order and
/// the sampled spreads combined as independent errors of the mean.
sim::SuiteResult average(const std::string& name,
                         std::vector<sim::WorkloadResult> results) {
  sim::SuiteResult suite;
  suite.config_name = name;
  double rt = 0, dy = 0, lk = 0, te = 0, ed = 0;
  double v_rt = 0, v_dy = 0, v_lk = 0, v_te = 0, v_ed = 0;
  for (const auto& r : results) {
    rt += r.normalized.runtime;
    dy += r.normalized.dynamic;
    lk += r.normalized.leakage;
    te += r.normalized.total_energy;
    ed += r.normalized.edp;
    if (!r.sampled) continue;
    suite.sampled = true;
    v_rt += r.spread.runtime * r.spread.runtime;
    v_dy += r.spread.dynamic * r.spread.dynamic;
    v_lk += r.spread.leakage * r.spread.leakage;
    v_te += r.spread.total_energy * r.spread.total_energy;
    v_ed += r.spread.edp * r.spread.edp;
  }
  const double n = static_cast<double>(results.size());
  suite.runtime = rt / n;
  suite.dynamic = dy / n;
  suite.leakage = lk / n;
  suite.total_energy = te / n;
  suite.edp = ed / n;
  if (suite.sampled) {
    suite.spread = {std::sqrt(v_rt) / n, std::sqrt(v_dy) / n,
                    std::sqrt(v_lk) / n, std::sqrt(v_te) / n,
                    std::sqrt(v_ed) / n};
  }
  suite.per_workload = std::move(results);
  return suite;
}

/// Simulated back-level counts of one grid cell: cache hits/misses behind
/// L3 and bytes written to non-volatile levels.
void count_back(Trace& tr, const sim::FrontCapture& capture,
                const cache::HierarchyProfile& profile) {
  for (std::size_t l = capture.front_profile.levels.size();
       l < profile.levels.size(); ++l) {
    const auto& level = profile.levels[l];
    if (level.is_cache) {
      const auto& s = level.cache_stats;
      tr.back_hits += s.load_hits + s.store_hits;
      tr.back_misses += s.load_misses + s.store_misses;
    }
    if (level.tech.non_volatile) tr.nvm_write_bytes += level.store_bytes;
  }
}

/// 0 when the file does not exist.
std::uint64_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino)
                                        : 0;
}

int cmd_trace(const Options& o) {
  const auto specs = family_sweeps(o.family);
  if (o.cold) {
    if (o.reference_store.empty()) {
      throw ConfigError("trace --cold needs --reference-store");
    }
    reset_dir(o.store);
  }
  if (!o.checkpoint.empty()) fs::remove(o.checkpoint);
  const sim::ExperimentConfig cfg = make_config(o);
  const sim::ExperimentRunner runner(cfg);
  const auto& factory = runner.factory();
  const auto& suite = runner.suite();
  const trace::TraceStore store(o.store);

  std::vector<std::size_t> configs = o.configs;
  if (configs.empty()) {
    for (std::size_t c = 0; c < specs.front().config_names.size(); ++c) {
      configs.push_back(c);
    }
  }
  for (const std::size_t c : configs) {
    if (c >= specs.front().config_names.size()) {
      throw ConfigError("--configs: index " + std::to_string(c) +
                        " out of range");
    }
  }

  // A cold re-enactment appends the same entry bytes the untraced sweep
  // appended; their metadata record is private to the sim layer, so it is
  // read from the sweep's store before the traced clock starts, and the
  // freshly captured residual is checked against the sweep's bytes.
  std::vector<workloads::WorkloadParams> params;
  std::vector<std::uint64_t> keys;
  std::vector<trace::TraceStoreEntry> reference(suite.size());
  for (std::size_t w = 0; w < suite.size(); ++w) {
    params.push_back(params_for(cfg, suite[w]));
    keys.push_back(sim::capture_hash(suite[w], params[w], factory));
    if (o.cold) {
      auto entry = trace::TraceStore(o.reference_store).load(keys[w]);
      if (!entry) {
        throw SimulationError("reference store has no entry for " + suite[w]);
      }
      reference[w] = std::move(*entry);
    }
  }

  Trace tr;
  // results[sweep][config index] -> per-workload results
  std::vector<std::vector<std::vector<sim::WorkloadResult>>> cells(
      specs.size(), std::vector<std::vector<sim::WorkloadResult>>(
                        specs.front().config_names.size()));
  std::vector<std::string> errors;
  const auto wall0 = Clock::now();

  for (std::size_t w = 0; w < suite.size(); ++w) {
    const std::string& name = suite[w];
    sim::FrontCapture capture;
    const double decode_before = tr.decode;
    if (o.cold) {
      const auto miss = timed(tr.store_load, [&] { return store.load(keys[w]); });
      if (miss) throw SimulationError("cold store already holds " + name);
      ++tr.store_misses;
      timed(tr.gen, [&] {
        trace::NullSink sink;
        workloads::make_workload(name, params[w])->run(sink);
      });
      capture = timed(tr.capture, [&] {
        return sim::capture_front(name, params[w], factory);
      });
      // One replay into the encoder: its span minus the encoder's own time
      // is the decode.
      TimedEncoder encoder;
      timed(tr.decode, [&] { capture.residual.replay(encoder); });
      tr.decode -= encoder.seconds();
      tr.encode += encoder.seconds();
      if (encoder.buffer().encoded_bytes() != capture.residual.encoded_bytes()) {
        errors.push_back(name + ": re-encoded residual differs in size");
      }
      timed(tr.store_append, [&] {
        trace::TraceStoreEntry entry;
        entry.metadata = reference[w].metadata;
        capture.interval_profile.serialize(entry.interval_profile);
        capture.residual.serialize(entry.residual);
        if (entry.residual != reference[w].residual ||
            entry.interval_profile != reference[w].interval_profile) {
          errors.push_back(name + ": capture differs from the sweep's");
        }
        store.store(keys[w], entry);
      });
    } else {
      const std::string path = store.entry_path(keys[w]);
      const std::uint64_t before = inode_of(path);
      capture = timed(tr.store_load, [&] {
        return sim::capture_front_cached(name, params[w], factory, &store);
      });
      if (before != 0 && inode_of(path) == before) {
        ++tr.store_hits;
      } else {
        ++tr.store_misses;
      }
      DiscardBatches discard;
      timed(tr.decode, [&] { capture.residual.replay(discard); });
    }
    tr.store_bytes += fs::file_size(store.entry_path(keys[w]));
    tr.refs += capture.front_profile.references;
    tr.residual_refs += capture.residual.access_count();
    tr.encoded_bytes += capture.residual.resident_bytes();
    const double full_decode = tr.decode - decode_before;

    std::optional<sim::SamplePlan> plan;
    if (cfg.sampling == sim::SamplingMode::SimPoint) {
      plan = timed(tr.plan, [&] {
        return sim::build_sample_plan(capture.residual, capture.interval_profile,
                                      cfg.sample_k, cfg.warmup_chunks,
                                      cfg.seed);
      });
      tr.plan_reps += plan->reps.size();
    }
    const sim::SamplePlan* const p = plan ? &*plan : nullptr;
    std::uint64_t replayed = capture.residual.access_count();
    if (p != nullptr && !p->exact) {
      replayed = 0;
      for (const auto& step : p->steps) {
        replayed += capture.residual.chunk_access_count(step.chunk);
      }
    }
    tr.replayed_accesses += replayed;
    tr.total_accesses += capture.residual.access_count();
    // Each grid replay decodes what it replays: the full pass's decode time
    // scaled by the replayed share.
    const double cell_decode =
        capture.residual.access_count() == 0
            ? 0.0
            : full_decode * static_cast<double>(replayed) /
                  static_cast<double>(capture.residual.access_count());

    auto base_back = timed(tr.back_build, [&] {
      return factory.base_back(capture.footprint_bytes);
    });
    const auto base_profile =
        timed(tr.base, [&] { return sim::replay_back(capture, *base_back, p); });
    model::ReferenceAnchor anchor;
    model::DesignReport base;
    timed(tr.model, [&] {
      anchor = model::make_anchor(base_profile,
                                  capture.info.memory_bound_fraction);
      base = model::evaluate("base", name, base_profile, anchor);
    });
    ++tr.evals;

    for (std::size_t s = 0; s < specs.size(); ++s) {
      for (const std::size_t c : configs) {
        const std::string& design = specs[s].config_names[c];
        auto back = timed(tr.back_build, [&] {
          return specs[s].make_back(factory, c, capture.footprint_bytes);
        });
        std::vector<sim::RepEstimate> reps;
        const auto profile = timed(
            tr.grid, [&] { return sim::replay_back(capture, *back, p, &reps); });
        tr.grid_refs += replayed;
        tr.grid_decode += cell_decode;
        count_back(tr, capture, profile);
        cells[s][c].push_back(
            finish(tr, design, name, profile, reps, base, anchor));
      }
    }
  }

  // Suite averages per config, and the checkpoint appends a cold sweep
  // makes as each config completes.
  std::vector<std::string> sweeps;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::unique_ptr<sim::SweepCheckpoint> checkpoint;
    if (!o.checkpoint.empty()) {
      checkpoint = timed(tr.checkpoint, [&] {
        return std::make_unique<sim::SweepCheckpoint>(
            o.checkpoint, sim::experiment_hash(cfg, specs[s].label));
      });
    }
    std::vector<sim::SuiteResult> results;
    for (const std::size_t c : configs) {
      results.push_back(timed(tr.model, [&] {
        return average(specs[s].config_names[c], std::move(cells[s][c]));
      }));
      if (checkpoint) {
        timed(tr.checkpoint, [&] { checkpoint->append(results.back()); });
        ++tr.appends;
      }
    }
    sweeps.push_back(results_json(specs[s].label, results));
  }
  const double wall = since(wall0);

  std::vector<std::string> errs;
  for (const auto& e : errors) errs.push_back(quote(e));
  std::ostringstream out;
  out << "{\"wall_s\":" << num(wall) << ",\"phase_sum_s\":"
      << num(tr.phase_sum()) << ",\"phases\":{"
      << join({"\"store_load_s\":" + num(tr.store_load),
               "\"capture_s\":" + num(tr.capture),
               "\"gen_s\":" + num(tr.gen), "\"encode_s\":" + num(tr.encode),
               "\"decode_s\":" + num(tr.decode),
               "\"store_append_s\":" + num(tr.store_append),
               "\"plan_s\":" + num(tr.plan),
               "\"back_build_s\":" + num(tr.back_build),
               "\"base_s\":" + num(tr.base), "\"grid_s\":" + num(tr.grid),
               "\"model_s\":" + num(tr.model),
               "\"checkpoint_s\":" + num(tr.checkpoint),
               "\"grid_decode_s\":" + num(tr.grid_decode)})
      << "},\"counts\":{"
      << join({"\"refs\":" + std::to_string(tr.refs),
               "\"store_hits\":" + std::to_string(tr.store_hits),
               "\"store_misses\":" + std::to_string(tr.store_misses),
               "\"store_bytes\":" + std::to_string(tr.store_bytes),
               "\"residual_refs\":" + std::to_string(tr.residual_refs),
               "\"encoded_bytes\":" + std::to_string(tr.encoded_bytes),
               "\"grid_refs\":" + std::to_string(tr.grid_refs),
               "\"plan_reps\":" + std::to_string(tr.plan_reps),
               "\"replayed_accesses\":" + std::to_string(tr.replayed_accesses),
               "\"total_accesses\":" + std::to_string(tr.total_accesses),
               "\"evals\":" + std::to_string(tr.evals),
               "\"appends\":" + std::to_string(tr.appends),
               "\"back_hits\":" + std::to_string(tr.back_hits),
               "\"back_misses\":" + std::to_string(tr.back_misses),
               "\"nvm_write_bytes\":" + std::to_string(tr.nvm_write_bytes)})
      << "},\"errors\":[" << join(errs) << "],\"sweeps\":[" << join(sweeps)
      << "]}\n";
  std::cout << out.str();
  return 0;
}

/// The benchmark measures the library defaults: ambient HMS_* knobs
/// (replay mode, sampling k, trace cache, ...) are dropped before any
/// ExperimentConfig reads them.
void clear_hms_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("HMS_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    clear_hms_environment();
    if (std::string(FIGBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "figbench: refusing to run a " << FIGBENCH_BUILD_TYPE
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 1;
    }
    const Options o = parse(argc, argv);
    if (o.command == "provenance") return cmd_provenance();
    if (o.command == "prefill") return cmd_prefill(o);
    if (o.command == "sweep") return cmd_sweep(o);
    if (o.command == "trace") return cmd_trace(o);
    throw ConfigError("unknown command " + o.command);
  } catch (const std::exception& e) {
    std::cerr << "figbench: " << e.what() << "\n";
    return 1;
  }
}
