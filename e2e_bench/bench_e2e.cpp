// End-to-end benchmark of the trojanscout audit path: one process runs one
// workload, checks every verdict against a hand-written oracle, and prints
// its metrics as one JSON object on the last line of stdout.
//
//   bench_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--root=DIR] [--quick]
//
// Workloads (README.md says why each exists and which layers it stresses):
//   audit-cold   Algorithm 1 over the nine Table-1 rows and four clean
//                cores through ParallelDetector, a fresh cache per pass;
//   audit-warm   the same audits against a cache primed during set-up, so
//                every obligation is a hit;
//   deep-unroll  five single corruption obligations at depth, serially;
//   service-mix  seeded open-loop traffic through an in-process `serve`
//                daemon; traced runs add a heavier rate, closed loops and
//                a two-worker `serve-fleet`.
//
// --trace=0 prints the end-to-end metrics (wall_s, peak_rss_mb, setup_s).
// --trace=1 runs the same workload with span recording and the telemetry
// registry on, and prints the per-layer metrics instead.
// --seed permutes the audit order and draws the service traffic; --seconds
// is the measuring window. --quick runs the workload once at toy size and
// checks only the oracle and parity (no timing is meaningful).
//
// The benchmark drives public entry points only. Per-layer times are read
// from the spans the program records (cnf:unroll, sat:solve, bmc:frame,
// engine:bmc, witness:replay, obligation:*) or timed here around a public
// call (instrument_obligation, ObligationKeyer::key, merge_obligation,
// VerdictStore lookup/store, the Verilog reader, the spec loader).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "cache/verdict_codec.hpp"
#include "core/detector.hpp"
#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "fleet/coordinator.hpp"
#include "proof/json.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "sim/witness.hpp"
#include "specdsl/specdsl.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "verilog/reader.hpp"
#include "verilog/writer.hpp"

namespace trojanscout::e2e {
namespace {

namespace fs = std::filesystem;
using proof::Json;
using Clock = std::chrono::steady_clock;

// Engine threads: the CLI default on the 4-core reference machine.
constexpr std::size_t kJobs = 4;
// Engine budget per obligation. No workload comes near it, so a timed run
// measures work, never a budget; an obligation that still ends resource-out
// counts as a failed operation.
constexpr double kBudget = 300.0;
// Set-up is repeated kSetupRepeats times before the passes. One cheaper
// than kCheapSetupSeconds is also repeated before every pass, for
// kSetupBurstSeconds each time, so its repeats sample the whole window: a
// vCPU of the shared host can stay 1.5x slow for over a second, long
// enough to catch every repeat of a single burst (README.md, "Noise").
constexpr int kSetupRepeats = 3;
constexpr double kCheapSetupSeconds = 0.05;
constexpr double kSetupBurstSeconds = 0.15;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The fastest of repeated timings of one piece of work. Other tenants of
/// the host slow it by up to 1.5x for seconds at a time and never speed it
/// up, so the fastest repeat is the steadiest estimate of its cost
/// (README.md, "Noise").
double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0
                         : *std::min_element(seconds.begin(), seconds.end());
}

/// Keeps the fastest time of each of a workload's inputs over its passes.
class BestTimes {
 public:
  explicit BestTimes(std::size_t inputs)
      : best_(inputs, std::numeric_limits<double>::infinity()) {}
  void add(std::size_t input, double seconds) {
    best_[input] = std::min(best_[input], seconds);
  }
  /// A pass with every input at its fastest.
  [[nodiscard]] double sum() const {
    return std::accumulate(best_.begin(), best_.end(), 0.0);
  }

 private:
  std::vector<double> best_;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <class F>
double time_us(F&& f) {
  const auto start = Clock::now();
  f();
  return seconds_between(start, Clock::now()) * 1e6;
}

// ---------------------------------------------------------------------------
// Workload sizes. The full sizes keep one audit-cold pass and one
// deep-unroll pass near 3 s on a 4-core x86 box, so a 25 s window holds
// about eight passes; --quick shrinks them for a smoke run.

struct DeepCase {
  std::string family;
  std::string trojan;  // catalog name; empty = the clean core
  unsigned risc_trigger = 25;
  std::string reg;
  std::size_t frames = 0;
};

// RISC Trojans of the audit workloads fire after n = 2 matching
// instructions, so their payload shows within the 20-frame RISC bound.
constexpr unsigned kAuditRiscTrigger = 2;

struct ServiceInput {
  const char* family;
  const char* trojan;  // empty = the clean core
  const char* spec;    // path relative to the repository root
};

// The service-mix traffic is synthetic: no recorded service trace exists,
// so the design draw (uniform over these eight), the cold share and the
// rates below are assumptions, not observed traffic (README.md).
constexpr ServiceInput kServiceInputs[] = {
    {"mc8051", "", "specs/mc8051_sp.spec"},
    {"mc8051", "MC8051-T400", "specs/mc8051_sp.spec"},
    {"mc8051", "MC8051-T700", "specs/mc8051_sp.spec"},
    {"mc8051", "MC8051-T800", "specs/mc8051_sp.spec"},
    {"risc", "", "specs/risc_sp.spec"},
    {"risc", "RISC-T100", "specs/risc_sp.spec"},
    {"risc", "RISC-T300", "specs/risc_sp.spec"},
    {"risc", "RISC-T400", "specs/risc_sp.spec"},
};
constexpr std::size_t kServiceFrames = 16;
// Open-loop arrival rates (jobs/s), about 20% and 40% of the closed-loop
// warm capacity of `serve` on the reference machine (a median 64-job batch
// takes 39 ms: about 1,650 jobs/s); the fleet phase runs at the light
// rate. At 960 jobs/s the cold share saturates the connections whenever
// the host slows, and the phase overruns.
constexpr double kLightRate = 320;
constexpr double kHeavyRate = 640;
// Share of open-loop jobs that are cold: a unique engine budget gives them
// fresh cache keys while keeping their engine work identical.
constexpr double kColdShare = 0.02;
// Warm jobs per closed-loop batch (split over the two connections).
constexpr std::size_t kClosedBatch = 64;

/// The sizes --quick shrinks.
struct Config {
  std::map<std::string, std::size_t> audit_frames;
  std::vector<DeepCase> deep;
  int min_passes = 3;
  int setup_repeats = kSetupRepeats;
};

Config make_config(bool quick) {
  Config c;
  if (quick) {
    c.audit_frames = {{"mc8051", 16}, {"risc", 20}, {"aes", 4}, {"router", 16}};
    c.deep = {{"risc", "RISC-T100", 2, "program_counter", 16},
              {"risc", "", 25, "program_counter", 16},
              {"mc8051", "", 25, "sp", 64},
              {"aes", "AES-T700", 25, "key_reg", 18},
              {"aes", "", 25, "key_reg", 8}};
    c.min_passes = 1;
    c.setup_repeats = 1;
    return c;
  }
  c.audit_frames = {{"mc8051", 64}, {"risc", 20}, {"aes", 6}, {"router", 64}};
  c.deep = {{"risc", "RISC-T100", 6, "program_counter", 32},
            {"risc", "", 25, "program_counter", 32},
            {"mc8051", "", 25, "sp", 192},
            {"aes", "AES-T700", 25, "key_reg", 18},
            {"aes", "", 25, "key_reg", 12}};
  return c;
}

// ---------------------------------------------------------------------------
// Run state and output.

struct Context {
  std::string root;  // repository checkout: specs/, e2e_bench/
  std::string work;  // scratch directory for caches and generated files
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool quick = false;
  Config config;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  Json metrics = Json::object();

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void metric(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", std::isfinite(value) ? value : 0.0);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
};

/// Stable oracle id of a design: catalog name, with the trigger count for
/// RISC Trojans (it changes the design), or "clean-<family>".
std::string design_id(const std::string& family, const std::string& trojan,
                      unsigned risc_trigger) {
  if (trojan.empty()) return "clean-" + family;
  if (family == "risc") return trojan + "/n=" + std::to_string(risc_trigger);
  return trojan;
}

designs::Design build_design(const std::string& family,
                             const std::string& trojan,
                             unsigned risc_trigger) {
  if (trojan.empty()) return designs::build_clean(family);
  designs::CatalogOptions options;
  options.risc_trigger_count = risc_trigger;
  for (const auto& info : designs::trojan_benchmarks(options)) {
    if (info.name == trojan) return info.build(/*payload_enabled=*/true);
  }
  throw std::runtime_error("unknown catalog design " + trojan);
}

/// Hand-written ground truth (e2e_expected.json): one entry per
/// (design, spec, frames) the workloads run.
class Oracle {
 public:
  explicit Oracle(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (!Json::parse(text.str(), doc_, &error)) {
      throw std::runtime_error(path + ": " + error);
    }
  }

  /// The entry of `section` ("audit" | "deep" | "service") matching the
  /// key, or null.
  const Json* find(const std::string& section, const std::string& design,
                   const std::string& spec, std::size_t frames) const {
    const Json* list = doc_.find(section);
    if (list == nullptr) return nullptr;
    for (const Json& entry : list->items()) {
      const Json* d = entry.find("design");
      const Json* s = entry.find("spec");
      const Json* f = entry.find("frames");
      if (d != nullptr && s != nullptr && f != nullptr &&
          d->as_string() == design && s->as_string() == spec &&
          static_cast<std::size_t>(f->as_int()) == frames) {
        return &entry;
      }
    }
    return nullptr;
  }

 private:
  Json doc_;
};

bool entry_bool(const Json& entry, const char* key) {
  const Json* v = entry.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string entry_string(const Json& entry, const char* key) {
  const Json* v = entry.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

/// Seeded permutation of [0, n).
std::vector<std::size_t> seeded_order(std::size_t n, util::Xoshiro256& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

/// A workload's set-up, timed. The constructor runs it
/// config.setup_repeats times and keeps the last result; report() records
/// the fastest repeat as setup_s.
template <class T>
class TimedSetup {
 public:
  TimedSetup(Context& ctx, std::function<T()> setup)
      : ctx_(ctx), setup_(std::move(setup)) {
    for (int i = 0; i < ctx.config.setup_repeats; ++i) {
      result_.reset();
      result_.emplace(timed());
    }
  }

  T& get() { return *result_; }

  /// Before a pass: repeats a cheap set-up for kSetupBurstSeconds,
  /// discarding the results.
  void repeat_if_cheap() {
    if (ctx_.trace || ctx_.quick || fastest(times_) > kCheapSetupSeconds) {
      return;
    }
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < kSetupBurstSeconds) {
      (void)timed();
    }
  }

  void report() const {
    if (!ctx_.trace) ctx_.metric("setup_s", fastest(times_), "s");
  }

 private:
  T timed() {
    const auto start = Clock::now();
    T out = setup_();
    times_.push_back(seconds_between(start, Clock::now()));
    return out;
  }

  Context& ctx_;
  std::function<T()> setup_;
  std::vector<double> times_;
  std::optional<T> result_;
};

/// Runs timed passes until the measuring window is used: at least
/// min_passes, and no new pass once the time measured so far plus a
/// median pass would overrun the window. `pass(i)` returns its seconds.
void run_passes(const Context& ctx, const std::function<double(int)>& pass) {
  std::vector<double> times;
  double measured = 0;
  for (int i = 0;; ++i) {
    if (i >= ctx.config.min_passes &&
        (ctx.quick || measured + median(times) > ctx.seconds)) {
      break;
    }
    const double s = pass(i);
    times.push_back(s);
    measured += s;
  }
}

// ---------------------------------------------------------------------------
// Layer accounting for traced runs.

/// core::VerdictStore decorator timing every lookup and store, and keeping
/// the engine counters of freshly computed results (a hit restores the
/// counters of the run that computed it, so only stores count as work).
class TimedStore final : public core::VerdictStore {
 public:
  explicit TimedStore(core::VerdictStore& inner) : inner_(inner) {}

  bool lookup(const core::Obligation& obligation,
              core::CheckResult& out) override {
    const auto start = Clock::now();
    const bool hit = inner_.lookup(obligation, out);
    lookup_ns_ += ns_since(start);
    lookups_++;
    if (hit) hits_++;
    return hit;
  }

  void store(const core::Obligation& obligation,
             const core::CheckResult& result) override {
    const auto start = Clock::now();
    inner_.store(obligation, result);
    store_ns_ += ns_since(start);
    stores_++;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!result.counters.frame_clauses.empty()) {
      clauses_ += result.counters.frame_clauses.back();
    }
    max_memory_ = std::max(max_memory_, result.memory_bytes);
  }

  std::atomic<std::uint64_t> lookup_ns_{0}, lookups_{0}, hits_{0};
  std::atomic<std::uint64_t> store_ns_{0}, stores_{0};
  std::mutex mutex_;
  std::uint64_t clauses_ = 0;     // guarded by mutex_
  std::uint64_t max_memory_ = 0;  // guarded by mutex_

 private:
  static std::uint64_t ns_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  core::VerdictStore& inner_;
};

std::uint64_t counter_value(const telemetry::Registry::Snapshot& snapshot,
                            const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Per-layer totals summed over the traced passes of a run.
struct LayerSums {
  int passes = 0;
  double wall_s = 0;
  double unroll_s = 0;
  double solve_s = 0;
  double bmc_overhead_s = 0;
  double classify_s = 0;
  double busy_s = 0;
  double critical_path_s = 0;
  double layered_s = 0;     // time of layer spans under obligation roots
  double covered_of_s = 0;  // coverage denominator
  double conflicts = 0;
  double decisions = 0;
  double propagations = 0;
  double vars = 0;
  double bmc_frames = 0;
  double clauses = 0;
  double max_memory_bytes = 0;
  double lookup_us = 0, lookups = 0, hits = 0, store_us = 0, stores = 0;
  double cache_index_bytes = 0, cache_entries = 0;
  std::vector<double> traced_walls, untraced_walls;

  /// Folds one traced pass. `serial` workloads divide layer self time by
  /// the pass wall; parallel ones by the obligations' inclusive time.
  void add_pass(const std::vector<telemetry::TraceEvent>& events,
                const telemetry::Registry::Snapshot& before,
                const telemetry::Registry::Snapshot& after, double wall,
                bool serial) {
    passes++;
    wall_s += wall;
    traced_walls.push_back(wall);
    const telemetry::Profile profile = telemetry::build_profile(events);
    double root_self_s = 0;
    for (const auto& phase : profile.phases) {
      const double s = static_cast<double>(phase.exclusive_us) / 1e6;
      if (phase.name == "cnf:unroll") unroll_s += s;
      if (phase.name == "sat:solve") solve_s += s;
      if (phase.name == "bmc:frame" || phase.name == "engine:bmc") {
        bmc_overhead_s += s;
      }
      if (phase.name == "witness:replay") classify_s += s;
      if (is_obligation_root(phase.name)) root_self_s += s;
    }
    // Obligation roots: their inclusive times give busy time, and the
    // longest one per audit (the span they hang under) its critical path.
    std::map<std::uint64_t, const telemetry::TraceEvent*> open;
    std::map<std::uint64_t, double> longest_by_parent;
    double busy = 0;
    for (const auto& e : events) {
      if (!is_obligation_root(e.name)) continue;
      if (e.begin) {
        open[e.span_id] = &e;
        continue;
      }
      const auto it = open.find(e.span_id);
      if (it == open.end()) continue;
      const double s = static_cast<double>(e.ts_us - it->second->ts_us) / 1e6;
      busy += s;
      double& longest = longest_by_parent[it->second->parent_id];
      longest = std::max(longest, s);
      open.erase(it);
    }
    busy_s += busy;
    if (serial) {
      critical_path_s += busy;
    } else {
      for (const auto& [parent, s] : longest_by_parent) critical_path_s += s;
    }
    // Time inside an obligation that no span below its root covers
    // belongs to no named layer.
    if (busy > 0) {
      layered_s += busy - root_self_s;
      covered_of_s += serial ? wall : busy;
    }
    const auto delta = [&](const char* name) {
      return static_cast<double>(counter_value(after, name) -
                                 counter_value(before, name));
    };
    conflicts += delta("sat.conflicts");
    decisions += delta("sat.decisions");
    propagations += delta("sat.propagations");
    vars += delta("cnf.vars");
    bmc_frames += delta("bmc.frames");
  }

  void add_store(const TimedStore& store) {
    lookup_us += static_cast<double>(store.lookup_ns_.load()) / 1e3;
    lookups += static_cast<double>(store.lookups_.load());
    hits += static_cast<double>(store.hits_.load());
    store_us += static_cast<double>(store.store_ns_.load()) / 1e3;
    stores += static_cast<double>(store.stores_.load());
    clauses += static_cast<double>(store.clauses_);
    max_memory_bytes =
        std::max(max_memory_bytes, static_cast<double>(store.max_memory_));
  }

  static bool is_obligation_root(const std::string& name) {
    return name.rfind("obligation:", 0) == 0 || name == "deep:obligation";
  }
};

/// Costs of the workload's inputs, timed around public calls while the
/// oracle checks them: summed over one round of the inputs.
struct StaticCosts {
  double obligations = 0;
  double enumerate_us = 0;
  double instrument_us = 0;
  double monitor_gates = 0;
  double key_us = 0;
  double merge_us = 0;
  double signature_us = 0;
  double replay_us = 0;
  double witnesses = 0;
  double wrong_verdicts = 0;
  double verilog_read_us = 0;
  double validate_us = 0;
  double spec_load_us = 0;
};

/// Service-path measurements (zero on the other workloads).
struct ServiceLayers {
  std::vector<double> connect_us, accept_us, stream_us;
  std::vector<double> fleet_accept_us, fleet_stream_us;
  std::vector<double> light_ms, heavy_ms, fleet_ms, lateness_ms;
  double computed = 0, obligations = 0;
  double closed_jobs_per_s = 0;
  double reshards = 0, retry_after = 0;
  double cache_hits = 0, cache_misses = 0, cache_entries = 0,
         cache_index_bytes = 0;
};

void emit_layers(Context& ctx, const LayerSums& sums, const StaticCosts& st,
                 const ServiceLayers& svc, std::size_t jobs) {
  const double n = std::max(1, sums.passes);
  ctx.metric("verilog.read_us", st.verilog_read_us, "us");
  ctx.metric("netlist.validate_us", st.validate_us, "us");
  ctx.metric("specdsl.load_us", st.spec_load_us, "us");
  ctx.metric("core.obligations", st.obligations, "count");
  ctx.metric("core.enumerate_us", st.enumerate_us, "us");
  ctx.metric("core.instrument_us", st.instrument_us, "us");
  ctx.metric("core.merge_us", st.merge_us, "us");
  ctx.metric("core.signature_us", st.signature_us, "us");
  ctx.metric("core.classify_s", sums.classify_s / n, "s");
  ctx.metric("core.busy_s", sums.busy_s / n, "s");
  ctx.metric("core.critical_path_s", sums.critical_path_s / n, "s");
  ctx.metric("core.parallel_efficiency",
             sums.wall_s > 0 ? sums.busy_s / (sums.wall_s * jobs) : 0,
             "ratio");
  ctx.metric("properties.monitor_gates", st.monitor_gates, "count");
  ctx.metric("cnf.unroll_s", sums.unroll_s / n, "s");
  ctx.metric("cnf.vars", sums.vars / n, "count");
  ctx.metric("cnf.clauses", sums.clauses / n, "count");
  ctx.metric("sat.solve_s", sums.solve_s / n, "s");
  ctx.metric("sat.conflicts", sums.conflicts / n, "count");
  ctx.metric("sat.decisions", sums.decisions / n, "count");
  ctx.metric("sat.propagations", sums.propagations / n, "count");
  ctx.metric("sat.props_per_s",
             sums.solve_s > 0 ? sums.propagations / sums.solve_s : 0, "1/s");
  ctx.metric("bmc.frames", sums.bmc_frames / n, "count");
  ctx.metric("bmc.overhead_s", sums.bmc_overhead_s / n, "s");
  ctx.metric("bmc.memory_mb", sums.max_memory_bytes / (1 << 20), "MB");
  ctx.metric("sim.replay_us", st.replay_us, "us");
  ctx.metric("cache.key_us", st.key_us, "us");
  ctx.metric("cache.lookup_us",
             sums.lookups > 0 ? sums.lookup_us / sums.lookups : 0, "us");
  ctx.metric("cache.store_us",
             sums.stores > 0 ? sums.store_us / sums.stores : 0, "us");
  const double hits = sums.hits / n + svc.cache_hits;
  const double misses = (sums.lookups - sums.hits) / n + svc.cache_misses;
  ctx.metric("cache.hits", hits, "count");
  ctx.metric("cache.misses", misses, "count");
  ctx.metric("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             "ratio");
  ctx.metric("cache.index_bytes",
             sums.cache_index_bytes / n + svc.cache_index_bytes, "bytes");
  ctx.metric("cache.entries", sums.cache_entries / n + svc.cache_entries,
             "count");
  ctx.metric("service.connect_us", median(svc.connect_us), "us");
  ctx.metric("service.accept_us", median(svc.accept_us), "us");
  ctx.metric("service.stream_us", median(svc.stream_us), "us");
  ctx.metric("service.computed_share",
             svc.obligations > 0 ? svc.computed / svc.obligations : 0,
             "ratio");
  ctx.metric("service.gen_lag_ms", quantile(svc.lateness_ms, 0.99), "ms");
  ctx.metric("service.light_p50_ms", quantile(svc.light_ms, 0.5), "ms");
  ctx.metric("service.light_p99_ms", quantile(svc.light_ms, 0.99), "ms");
  ctx.metric("service.heavy_p50_ms", quantile(svc.heavy_ms, 0.5), "ms");
  ctx.metric("service.heavy_p99_ms", quantile(svc.heavy_ms, 0.99), "ms");
  ctx.metric("service.closed_jobs_per_s", svc.closed_jobs_per_s, "1/s");
  ctx.metric("fleet.p50_ms", quantile(svc.fleet_ms, 0.5), "ms");
  ctx.metric("fleet.p99_ms", quantile(svc.fleet_ms, 0.99), "ms");
  ctx.metric("fleet.accept_us", median(svc.fleet_accept_us), "us");
  ctx.metric("fleet.stream_us", median(svc.fleet_stream_us), "us");
  ctx.metric("fleet.reshards", svc.reshards, "count");
  ctx.metric("fleet.retry_after", svc.retry_after, "count");
  const double traced = fastest(sums.traced_walls);
  const double untraced = fastest(sums.untraced_walls);
  ctx.metric("telemetry.trace_overhead_pct",
             untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0, "%");
  ctx.metric("telemetry.layer_coverage_pct",
             sums.covered_of_s > 0 ? 100.0 * sums.layered_s / sums.covered_of_s
                                   : 0,
             "%");
  ctx.metric("oracle.wrong_verdicts", st.wrong_verdicts, "count");
  ctx.metric("oracle.witnesses_replayed", st.witnesses, "count");
}

/// Runs `pass` with a fresh global span recorder and the registry on, and
/// folds the result into `sums`.
double traced_pass(LayerSums& sums, bool serial,
                   const std::function<double()>& pass) {
  telemetry::TraceRecorder recorder;
  telemetry::Registry& registry = telemetry::Registry::global();
  registry.set_enabled(true);
  const auto before = registry.snapshot();
  telemetry::TraceRecorder::set_global(&recorder);
  const double seconds = pass();
  telemetry::TraceRecorder::set_global(nullptr);
  const auto after = registry.snapshot();
  registry.set_enabled(false);
  sums.add_pass(recorder.events(), before, after, seconds, serial);
  return seconds;
}

// ---------------------------------------------------------------------------
// Oracle checks shared by the audit workloads.

/// Replays every witness of `report` on the monitored netlist its
/// obligation ran on, and times the public per-obligation calls.
void replay_and_cost(Context& ctx, const std::string& id,
                     const designs::Design& design,
                     const core::DetectorOptions& options,
                     const core::DetectionReport& report, StaticCosts& st) {
  const core::TrojanDetector detector(design, options);
  std::vector<core::Obligation> obligations;
  st.enumerate_us +=
      time_us([&] { obligations = detector.enumerate_obligations(); });
  ctx.check(obligations.size() == report.runs.size(),
            id + ": report has " + std::to_string(report.runs.size()) +
                " runs for " + std::to_string(obligations.size()) +
                " obligations");
  st.obligations += static_cast<double>(obligations.size());
  st.key_us += time_us([&] {
    const cache::ObligationKeyer keyer(design, options, /*fail_fast=*/false);
    for (const auto& ob : obligations) (void)keyer.key(ob);
  });
  for (std::size_t i = 0;
       i < obligations.size() && i < report.runs.size(); ++i) {
    core::TrojanDetector::InstrumentedProperty property;
    st.instrument_us += time_us(
        [&] { property = detector.instrument_obligation(obligations[i]); });
    st.monitor_gates +=
        static_cast<double>(property.nl.size() - design.nl.size());
    const core::CheckResult& check = report.runs[i].check;
    if (!check.witness.has_value()) continue;
    sim::ReplayVerdict verdict;
    st.replay_us += time_us([&] {
      verdict = sim::replay_confirms(property.nl, property.bad, *check.witness);
    });
    st.witnesses++;
    ctx.check(verdict.confirmed && verdict.minimal,
              id + " " + report.runs[i].property +
                  ": witness does not replay: " + verdict.detail);
  }
  core::DetectionReport merged;
  merged.trust_bound_frames = options.engine.max_frames;
  st.merge_us += time_us([&] {
    for (std::size_t i = 0;
         i < obligations.size() && i < report.runs.size(); ++i) {
      detector.merge_obligation(merged, obligations[i], report.runs[i].check);
    }
  });
  std::string signature;
  st.signature_us += time_us([&] { signature = report.signature(); });
  ctx.check(merged.signature() == signature,
            id + ": re-merging the obligations changes the signature");
}

bool decided(const core::CheckResult& check) {
  return check.status == "violated" || check.status == "bound-reached";
}

/// Compares one report against its oracle entry. Returns whether the
/// verdict is wrong (a known, documented false positive is counted but is
/// not a correctness failure).
bool check_verdict(Context& ctx, const std::string& id, const Json* expected,
                   const core::DetectionReport& report, std::size_t frames) {
  if (expected == nullptr) {
    ctx.check(false, id + " @" + std::to_string(frames) +
                         ": no entry in e2e_expected.json");
    return false;
  }
  const bool want = entry_bool(*expected, "trojan_found");
  const bool known_fp = !entry_string(*expected, "known_false_positive").empty();
  const bool wrong = report.trojan_found != want;
  ctx.check(!wrong || known_fp,
            id + ": trojan_found=" + std::to_string(report.trojan_found) +
                ", expected " + std::to_string(want));
  const std::string reg = entry_string(*expected, "finding_register");
  if (!reg.empty()) {
    bool found = false;
    for (const auto& f : report.findings) {
      found = found || (f.kind == core::FindingKind::kCorruption &&
                        f.register_name == reg);
    }
    ctx.check(found, id + ": no data-corruption finding on " + reg);
  }
  if (!want) {
    // A clean verdict must rest on fully decided frames.
    for (const auto& run : report.runs) {
      ctx.check(run.check.violated || run.check.frames_completed == frames,
                id + " " + run.property + ": decided " +
                    std::to_string(run.check.frames_completed) + " of " +
                    std::to_string(frames) + " frames");
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// audit-cold / audit-warm.

struct AuditInput {
  std::string id;
  std::size_t frames = 0;
  designs::Design design;
  const Json* expected = nullptr;
};

core::ParallelDetectorOptions audit_options(std::size_t frames) {
  core::ParallelDetectorOptions o;
  o.jobs = kJobs;
  o.detector.engine.max_frames = frames;
  o.detector.engine.time_limit_seconds = kBudget;
  return o;
}

std::vector<AuditInput> build_audit_inputs(const Context& ctx,
                                           const Oracle& oracle) {
  std::vector<AuditInput> inputs;
  const unsigned n = kAuditRiscTrigger;
  designs::CatalogOptions options;
  options.risc_trigger_count = n;
  for (const auto& info : designs::trojan_benchmarks(options)) {
    AuditInput in;
    in.id = design_id(info.family, info.name, n);
    in.frames = ctx.config.audit_frames.at(info.family);
    in.design = info.build(/*payload_enabled=*/true);
    inputs.push_back(std::move(in));
  }
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    AuditInput in;
    in.id = design_id(family, "", n);
    in.frames = ctx.config.audit_frames.at(family);
    in.design = designs::build_clean(family);
    inputs.push_back(std::move(in));
  }
  for (auto& in : inputs) {
    in.expected = oracle.find("audit", in.id, "catalog", in.frames);
  }
  return inputs;
}

std::unique_ptr<cache::VerdictCache> open_cache(const std::string& dir,
                                               cache::CacheMode mode) {
  cache::VerdictCache::Options o;
  o.dir = dir;
  o.mode = mode;
  return std::make_unique<cache::VerdictCache>(o);
}

struct AuditPass {
  double seconds = 0;
  std::vector<double> design_seconds;  // indexed like the inputs
  std::vector<core::DetectionReport> reports;
  cache::CacheStats cache;
};

/// One pass of Algorithm 1 over every input, in `order`, against a verdict
/// cache in `cache_dir` (opened once per pass, like one batch audit).
AuditPass audit_pass(const std::vector<AuditInput>& inputs,
                     const std::vector<std::size_t>& order,
                     const std::string& cache_dir, cache::CacheMode mode,
                     LayerSums* sums) {
  AuditPass pass;
  pass.design_seconds.resize(inputs.size());
  pass.reports.resize(inputs.size());
  const auto start = Clock::now();
  const auto owned = open_cache(cache_dir, mode);
  cache::VerdictCache& cache = *owned;
  for (const std::size_t i : order) {
    const AuditInput& in = inputs[i];
    const auto design_start = Clock::now();
    core::ParallelDetectorOptions options = audit_options(in.frames);
    cache::AuditVerdictStore store(cache, in.design, options.detector,
                                   /*fail_fast=*/false);
    std::optional<TimedStore> timed;
    if (sums != nullptr) {
      timed.emplace(store);
      options.store = &*timed;
    } else {
      options.store = &store;
    }
    core::ParallelDetector detector(in.design, options);
    pass.reports[i] = detector.run();
    pass.design_seconds[i] = seconds_between(design_start, Clock::now());
    if (timed.has_value()) sums->add_store(*timed);
  }
  pass.seconds = seconds_between(start, Clock::now());
  pass.cache = cache.stats();
  if (sums != nullptr) {
    std::error_code ec;
    sums->cache_index_bytes += static_cast<double>(
        fs::file_size(fs::path(cache_dir) / "index.txt", ec));
    sums->cache_entries += static_cast<double>(cache.entry_count());
  }
  return pass;
}

/// Counts operations and checks a pass: every obligation decided, and
/// every signature byte-identical to the reference pass.
void tally_pass(Context& ctx, const std::vector<AuditInput>& inputs,
                const AuditPass& pass,
                const std::vector<std::string>& reference,
                const std::string& what) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ctx.attempted++;
    bool ok = true;
    for (const auto& run : pass.reports[i].runs) ok = ok && decided(run.check);
    if (!ok) ctx.failed++;
    ctx.check(pass.reports[i].signature() == reference[i],
              inputs[i].id + ": " + what + " signature differs");
  }
}

/// Oracle checks on one pass's reports; returns the static costs.
StaticCosts check_audit(Context& ctx, const std::vector<AuditInput>& inputs,
                        const AuditPass& pass) {
  StaticCosts st;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const AuditInput& in = inputs[i];
    if (check_verdict(ctx, in.id, in.expected, pass.reports[i], in.frames)) {
      st.wrong_verdicts++;
    }
    replay_and_cost(ctx, in.id, in.design,
                    audit_options(in.frames).detector, pass.reports[i], st);
  }
  return st;
}

std::vector<std::string> signatures(const AuditPass& pass) {
  std::vector<std::string> out;
  for (const auto& report : pass.reports) out.push_back(report.signature());
  return out;
}

void run_audit(Context& ctx, const Oracle& oracle, bool warm) {
  // Cold cache directories stay until the run ends, so no deletion runs
  // on the disk while passes are timed.
  int cache_serial = 0;
  const auto fresh_dir = [&] {
    return ctx.work + "/cache-" + std::to_string(cache_serial++);
  };

  struct Prepared {
    std::vector<AuditInput> inputs;
    std::vector<std::size_t> order;
    std::string warm_dir;
    AuditPass prime;
  };
  TimedSetup<Prepared> setup(ctx, [&] {
    Prepared out;
    out.inputs = build_audit_inputs(ctx, oracle);
    // A generator per repeat: the order depends on the seed alone, not on
    // how many set-up repeats ran.
    util::Xoshiro256 rng(ctx.seed);
    out.order = seeded_order(out.inputs.size(), rng);
    if (warm) {
      out.warm_dir = fresh_dir();
      out.prime = audit_pass(out.inputs, out.order, out.warm_dir,
                             cache::CacheMode::kReadWrite, nullptr);
    }
    return out;
  });
  Prepared& p = setup.get();

  std::vector<std::string> reference;
  StaticCosts st;
  if (warm) {
    reference = signatures(p.prime);
    st = check_audit(ctx, p.inputs, p.prime);
  }

  LayerSums sums;
  BestTimes best(p.inputs.size());
  const auto one_pass = [&](LayerSums* traced) {
    const std::string dir = warm ? p.warm_dir : fresh_dir();
    // Warm passes read the cache without bumping its LRU index: with the
    // default read-write mode every hit rewrites the index file, and that
    // filesystem write swings a warm pass by 2.5x between runs on the
    // reference disk (README.md, "Read-only warm caches").
    AuditPass pass =
        audit_pass(p.inputs, p.order, dir,
                   warm ? cache::CacheMode::kReadOnly
                        : cache::CacheMode::kReadWrite,
                   traced);
    if (reference.empty()) {
      reference = signatures(pass);
      st = check_audit(ctx, p.inputs, pass);
    }
    tally_pass(ctx, p.inputs, pass, reference, warm ? "warm" : "cold");
    if (warm) {
      ctx.check(pass.cache.misses == 0 && pass.cache.stores == 0,
                "a warm pass missed the cache " +
                    std::to_string(pass.cache.misses) + " times");
    }
    return pass;
  };

  run_passes(ctx, [&](int i) {
    setup.repeat_if_cheap();
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured in the same process.
    if (ctx.trace && i % 2 == 1) {
      return traced_pass(sums, /*serial=*/false,
                         [&] { return one_pass(&sums).seconds; });
    }
    const AuditPass pass = one_pass(nullptr);
    if (ctx.trace) sums.untraced_walls.push_back(pass.seconds);
    for (std::size_t d = 0; d < p.inputs.size(); ++d) {
      best.add(d, pass.design_seconds[d]);
    }
    return pass.seconds;
  });

  setup.report();
  if (ctx.trace) {
    emit_layers(ctx, sums, st, ServiceLayers{}, kJobs);
  } else {
    ctx.metric("wall_s", best.sum(), "s");
  }
}

// ---------------------------------------------------------------------------
// deep-unroll.

struct DeepInput {
  std::string id;
  DeepCase c;
  designs::Design design;
  const Json* expected = nullptr;
};

struct DeepRun {
  double seconds = 0;
  core::CheckResult result;
  core::TrojanDetector::InstrumentedProperty property;
};

/// The report-signature text of one obligation's verdict (status, frames,
/// witness bits), for pass-to-pass parity.
std::string run_signature(const std::string& reg,
                          const core::CheckResult& result) {
  core::DetectionReport report;
  report.runs.push_back({"corruption(" + reg + ")", result});
  return report.signature();
}

DeepRun run_deep_case(const DeepInput& in, double* instrument_us) {
  core::DetectorOptions options;
  options.engine.max_frames = in.c.frames;
  options.engine.time_limit_seconds = kBudget;
  const core::TrojanDetector detector(in.design, options);
  const core::Obligation obligation{core::Obligation::Kind::kCorruption,
                                    in.c.reg, {}};
  DeepRun run;
  const auto start = Clock::now();
  {
    telemetry::Span root("deep:obligation");
    {
      telemetry::Span span("core:instrument");
      *instrument_us += time_us(
          [&] { run.property = detector.instrument_obligation(obligation); });
    }
    run.result = core::run_engine(run.property.nl, run.property.bad,
                                  options.engine);
  }
  run.seconds = seconds_between(start, Clock::now());
  return run;
}

void check_deep(Context& ctx, const DeepInput& in, const DeepRun& run,
                StaticCosts& st) {
  if (in.expected == nullptr) {
    ctx.check(false, in.id + " " + in.c.reg + " @" +
                         std::to_string(in.c.frames) +
                         ": no entry in e2e_expected.json");
    return;
  }
  const Json* at = in.expected->find("violated_at");
  const core::CheckResult& r = run.result;
  if (at != nullptr && at->is_int()) {
    const std::size_t depth = static_cast<std::size_t>(at->as_int());
    ctx.check(r.violated && r.witness.has_value() &&
                  r.witness->violation_frame == depth,
              in.id + " " + in.c.reg + ": expected a witness at depth " +
                  std::to_string(depth) + ", got " + r.status + " after " +
                  std::to_string(r.frames_completed) + " frames");
  } else {
    ctx.check(!r.violated && r.status == "bound-reached" &&
                  r.frames_completed == in.c.frames,
              in.id + " " + in.c.reg + ": expected all " +
                  std::to_string(in.c.frames) + " frames decided clean, got " +
                  r.status + " after " + std::to_string(r.frames_completed));
  }
  if (r.witness.has_value()) {
    sim::ReplayVerdict verdict;
    st.replay_us += time_us([&] {
      verdict = sim::replay_confirms(run.property.nl, run.property.bad,
                                     *r.witness);
    });
    st.witnesses++;
    ctx.check(verdict.confirmed && verdict.minimal,
              in.id + ": witness does not replay: " + verdict.detail);
  }
}

void run_deep(Context& ctx, const Oracle& oracle) {
  struct Prepared {
    std::vector<DeepInput> inputs;
    std::vector<std::size_t> order;
  };
  TimedSetup<Prepared> setup(ctx, [&] {
    Prepared out;
    for (const DeepCase& c : ctx.config.deep) {
      DeepInput in;
      in.id = design_id(c.family, c.trojan, c.risc_trigger);
      in.c = c;
      in.design = build_design(c.family, c.trojan, c.risc_trigger);
      in.expected = oracle.find("deep", in.id, "catalog:" + c.reg, c.frames);
      out.inputs.push_back(std::move(in));
    }
    util::Xoshiro256 rng(ctx.seed);  // per repeat, as in run_audit
    out.order = seeded_order(out.inputs.size(), rng);
    return out;
  });
  const Prepared& p = setup.get();

  StaticCosts st;
  LayerSums sums;
  BestTimes best(p.inputs.size());
  std::vector<std::string> reference(p.inputs.size());
  // Sums obligation time only: the oracle checks between obligations are
  // not part of the pass.
  const auto one_pass = [&](LayerSums* traced) {
    double total = 0;
    for (const std::size_t i : p.order) {
      const DeepInput& in = p.inputs[i];
      double instrument_us = 0;
      const DeepRun run = run_deep_case(in, &instrument_us);
      total += run.seconds;
      ctx.attempted++;
      if (!decided(run.result)) ctx.failed++;
      const std::string signature = run_signature(in.c.reg, run.result);
      if (reference[i].empty()) {
        reference[i] = signature;
        check_deep(ctx, in, run, st);
        st.obligations++;
        st.instrument_us += instrument_us;
        st.monitor_gates += static_cast<double>(run.property.nl.size() -
                                                in.design.nl.size());
      }
      ctx.check(signature == reference[i],
                in.id + ": verdict differs between passes");
      if (traced == nullptr) {
        best.add(i, run.seconds);
        continue;
      }
      if (!run.result.counters.frame_clauses.empty()) {
        traced->clauses += run.result.counters.frame_clauses.back();
      }
      traced->max_memory_bytes =
          std::max(traced->max_memory_bytes,
                   static_cast<double>(run.result.memory_bytes));
    }
    return total;
  };

  run_passes(ctx, [&](int i) {
    setup.repeat_if_cheap();
    if (ctx.trace && i % 2 == 1) {
      return traced_pass(sums, /*serial=*/true,
                         [&] { return one_pass(&sums); });
    }
    const double s = one_pass(nullptr);
    if (ctx.trace) sums.untraced_walls.push_back(s);
    return s;
  });

  setup.report();
  if (ctx.trace) {
    emit_layers(ctx, sums, st, ServiceLayers{}, /*jobs=*/1);
  } else {
    ctx.metric("wall_s", best.sum(), "s");
  }
}

// ---------------------------------------------------------------------------
// service-mix.

struct ServiceJobInput {
  std::string id;
  service::AuditJob job;  // warm template
  const Json* expected = nullptr;
  std::string signature;  // direct in-process audit of the same files
};

/// Unix-domain endpoint for a socket file in `dir`, relative to the working
/// directory so the path stays within the socket-address length limit.
std::string unix_endpoint(const std::string& dir, const std::string& name) {
  return "unix:" + fs::relative(fs::path(dir) / name).string();
}

/// An in-process `serve` daemon plus a `serve-fleet` coordinator over two
/// worker daemons sharing an L2 cache directory, all on Unix-domain
/// sockets (README.md says why not TCP loopback). The serve cache and the
/// fleet's L2 start as copies of `primed` and are opened read-only, like
/// the audit-warm passes.
class ServiceStack {
 public:
  ServiceStack(const std::string& dir, const std::string& primed) {
    fs::create_directories(dir);
    fs::copy(primed, dir + "/serve-l1", fs::copy_options::recursive);
    fs::copy(primed, dir + "/l2", fs::copy_options::recursive);
    constexpr cache::CacheMode kMode = cache::CacheMode::kReadOnly;
    serve_cache_ = open_cache(dir + "/serve-l1", kMode);
    service::AuditDaemon::Options serve;
    serve.endpoint = unix_endpoint(dir, "serve.sock");
    serve.jobs = kJobs;
    serve.cache = serve_cache_.get();
    serve_ = std::make_unique<service::AuditDaemon>(serve);
    serve_->start();

    // Both workers live in this process, so they share one L2 store
    // object (its index writes are not safe across two objects of one
    // process); the claim protocol still runs through the directory.
    l2_ = open_cache(dir + "/l2", kMode);
    std::vector<std::string> endpoints;
    for (int w = 0; w < 2; ++w) {
      worker_l1_[w] =
          open_cache(dir + "/worker" + std::to_string(w), kMode);
      service::AuditDaemon::Options o;
      o.endpoint = unix_endpoint(dir, "worker" + std::to_string(w) + ".sock");
      o.jobs = kJobs / 2;
      o.cache = worker_l1_[w].get();
      o.l2 = l2_.get();
      workers_[w] = std::make_unique<service::AuditDaemon>(o);
      workers_[w]->start();
      endpoints.push_back(workers_[w]->bound_endpoint());
    }
    fleet::FleetCoordinator::Options f;
    f.endpoint = unix_endpoint(dir, "fleet.sock");
    f.workers = endpoints;
    coordinator_ = std::make_unique<fleet::FleetCoordinator>(f);
    coordinator_->start();
  }

  ~ServiceStack() {
    coordinator_->stop();
    for (auto& w : workers_) w->stop();
    serve_->stop();
  }

  ServiceStack(const ServiceStack&) = delete;
  ServiceStack& operator=(const ServiceStack&) = delete;

  [[nodiscard]] std::string serve_endpoint() const {
    return serve_->bound_endpoint();
  }
  [[nodiscard]] std::string fleet_endpoint() const {
    return coordinator_->bound_endpoint();
  }
  [[nodiscard]] const cache::VerdictCache& serve_cache() const {
    return *serve_cache_;
  }
  [[nodiscard]] const fleet::FleetCoordinator& coordinator() const {
    return *coordinator_;
  }

 private:
  std::unique_ptr<cache::VerdictCache> serve_cache_;
  std::unique_ptr<cache::VerdictCache> l2_;
  std::unique_ptr<cache::VerdictCache> worker_l1_[2];
  std::unique_ptr<service::AuditDaemon> serve_;
  std::unique_ptr<service::AuditDaemon> workers_[2];
  std::unique_ptr<fleet::FleetCoordinator> coordinator_;
};

/// One job's timeline and outcome as seen by the client.
struct JobRecord {
  std::size_t input = 0;
  bool cold = false;
  double due = 0;       // seconds after the phase start
  double lateness = 0;  // seconds the send ran behind `due`
  Clock::time_point sent{}, accepted{}, done{};
  bool ok = false;
  bool trojan_found = false;
  std::string signature;
  std::string error;
  std::uint64_t obligations = 0;
  std::uint64_t computed = 0;
};

/// Reads one job's response stream (accepted, obligations, report).
bool read_job(service::Client& client, JobRecord& r) {
  std::string line;
  while (client.read_line(line)) {
    Json j;
    std::string error;
    if (!Json::parse(line, j, &error)) continue;
    const Json* type = j.find("type");
    if (type == nullptr || !type->is_string()) continue;
    const std::string& t = type->as_string();
    if (t == "accepted") {
      r.accepted = Clock::now();
    } else if (t == "obligation") {
      r.obligations++;
      const Json* source = j.find("source");
      if (source != nullptr && source->as_string() == "computed") {
        r.computed++;
      }
    } else if (t == "report") {
      r.done = Clock::now();
      r.ok = true;
      r.trojan_found = j.find("trojan_found")->as_bool();
      r.signature = j.find("signature")->as_string();
      return true;
    } else if (t == "error" || t == "retry-after") {
      r.done = Clock::now();
      r.error = line;
      return true;
    }
  }
  r.error = "connection closed";
  return false;
}

service::AuditJob job_for(const std::vector<ServiceJobInput>& inputs,
                          const JobRecord& r, std::size_t serial) {
  service::AuditJob job = inputs[r.input].job;
  job.id = "j" + std::to_string(serial);
  // A cold job differs from its warm twin only in the engine budget — part
  // of the cache key, never reached — so it computes every obligation
  // afresh with identical engine work.
  if (r.cold) job.budget = kBudget + 1.0 + static_cast<double>(serial);
  return job;
}

/// Open loop: jobs are sent at their due times over two persistent
/// connections, each with a sender and a reader thread, whatever the
/// server's progress; latency counts from the due time.
void open_loop(const std::string& endpoint,
               const std::vector<ServiceJobInput>& inputs,
               std::vector<JobRecord>& jobs, std::size_t& serial,
               std::vector<double>& connect_us) {
  constexpr std::size_t kConnections = 2;
  std::vector<std::unique_ptr<service::Client>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const auto t = Clock::now();
    clients.push_back(std::make_unique<service::Client>(endpoint));
    connect_us.push_back(seconds_between(t, Clock::now()) * 1e6);
  }
  const std::size_t base = serial;
  serial += jobs.size();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    service::Client& client = *clients[c];
    threads.emplace_back([&, c] {
      try {
        for (std::size_t k = c; k < jobs.size(); k += kConnections) {
          JobRecord& r = jobs[k];
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.due)));
          r.sent = Clock::now();
          client.send_line(
              service::audit_request_line(job_for(inputs, r, base + k)));
        }
      } catch (const std::exception& e) {
        std::cerr << "open loop sender: " << e.what() << "\n";
      }
    });
    threads.emplace_back([&, c] {
      for (std::size_t k = c; k < jobs.size(); k += kConnections) {
        if (!read_job(client, jobs[k])) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (JobRecord& r : jobs) {
    if (!r.ok && r.error.empty()) r.error = "no response";
    if (r.ok) r.lateness = seconds_between(start, r.sent) - r.due;
  }
}

/// Draws a Poisson arrival schedule of `rate` jobs/s over `duration`,
/// conditioned on its expected job count (uniform arrival times), with an
/// exact share of cold jobs at seeded positions: every seed then offers the
/// same amount of work.
std::vector<JobRecord> plan_phase(util::Xoshiro256& rng, double rate,
                                  double duration, std::size_t inputs,
                                  double cold_share) {
  const auto count = static_cast<std::size_t>(std::lround(rate * duration));
  std::vector<JobRecord> jobs(count);
  std::vector<double> due(count);
  for (double& t : due) t = rng.next_double() * duration;
  std::sort(due.begin(), due.end());
  for (std::size_t k = 0; k < count; ++k) {
    jobs[k].due = due[k];
    jobs[k].input = rng.next_below(inputs);
  }
  const auto colds = static_cast<std::size_t>(
      std::lround(cold_share * static_cast<double>(count)));
  const std::vector<std::size_t> order = seeded_order(count, rng);
  for (std::size_t k = 0; k < colds && k < count; ++k) {
    jobs[order[k]].cold = true;
  }
  return jobs;
}

/// Closed loop: two connections each submit their half of a fixed warm
/// batch back to back. Returns the batch wall time.
double closed_pass(const std::vector<ServiceJobInput>& inputs,
                   std::vector<JobRecord>& jobs, std::size_t& serial,
                   service::Client* const clients[2]) {
  const std::size_t base = serial;
  serial += jobs.size();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t k = c; k < jobs.size(); k += 2) {
          JobRecord& r = jobs[k];
          r.sent = Clock::now();
          clients[c]->send_line(
              service::audit_request_line(job_for(inputs, r, base + k)));
          if (!read_job(*clients[c], r)) break;
        }
      } catch (const std::exception& e) {
        std::cerr << "closed loop: " << e.what() << "\n";
      }
    });
  }
  for (auto& t : threads) t.join();
  return seconds_between(start, Clock::now());
}

void check_jobs(Context& ctx, const std::vector<ServiceJobInput>& inputs,
                const std::vector<JobRecord>& jobs, const std::string& path) {
  for (const JobRecord& r : jobs) {
    ctx.attempted++;
    if (!r.ok) {
      ctx.failed++;
      ctx.check(false, path + " job on " + inputs[r.input].id + " failed: " +
                           r.error);
      continue;
    }
    const ServiceJobInput& in = inputs[r.input];
    ctx.check(r.signature == in.signature,
              path + " " + in.id + (r.cold ? " (cold)" : "") +
                  ": signature differs from the direct audit");
  }
}

/// The service workload's set-up: its inputs written as Verilog, their
/// direct in-process audits (the parity reference, which also fill the
/// cache the servers start from), and the running servers.
struct ServiceSetup {
  std::vector<ServiceJobInput> inputs;
  std::vector<designs::Design> designs;  // loaded the way the servers load them
  std::vector<core::DetectionReport> reports;
  std::unique_ptr<ServiceStack> stack;
};

ServiceSetup set_up_service(const Context& ctx, const Oracle& oracle,
                            const std::string& dir) {
  ServiceSetup out;
  fs::create_directories(dir);
  const std::string primed_dir = dir + "/primed";
  {
    const auto primed = open_cache(primed_dir, cache::CacheMode::kReadWrite);
    for (const ServiceInput& s : kServiceInputs) {
      ServiceJobInput in;
      in.id = design_id(s.family, s.trojan, 25);
      in.job.design_path =
          dir + "/" + in.id.substr(0, in.id.find('/')) + ".v";
      in.job.spec_path = ctx.root + "/" + s.spec;
      in.job.frames = kServiceFrames;
      in.job.budget = kBudget;
      in.expected = oracle.find("service", in.id, s.spec, kServiceFrames);
      {
        const designs::Design design = build_design(s.family, s.trojan, 25);
        std::ofstream os(in.job.design_path);
        verilog::write_verilog(os, design.nl, design.name);
      }
      designs::Design loaded = service::load_job_design(in.job);
      core::ParallelDetectorOptions options;
      options.jobs = kJobs;
      options.detector = in.job.detector_options();
      cache::AuditVerdictStore store(*primed, loaded, options.detector,
                                     /*fail_fast=*/false);
      options.store = &store;
      out.reports.push_back(core::ParallelDetector(loaded, options).run());
      in.signature = out.reports.back().signature();
      out.inputs.push_back(std::move(in));
      out.designs.push_back(std::move(loaded));
    }
  }
  out.stack = std::make_unique<ServiceStack>(dir + "/stack", primed_dir);
  return out;
}

void run_service(Context& ctx, const Oracle& oracle) {
  util::Xoshiro256 rng(ctx.seed);
  std::size_t serial = 0;
  int setups = 0;
  TimedSetup<ServiceSetup> timed_setup(ctx, [&] {
    return set_up_service(
        ctx, oracle, ctx.work + "/service-" + std::to_string(setups++));
  });
  timed_setup.report();
  ServiceSetup& setup = timed_setup.get();
  const std::vector<ServiceJobInput>& inputs = setup.inputs;
  std::unique_ptr<ServiceStack>& stack = setup.stack;

  // Oracle on the direct audits, and the elaboration costs every job pays
  // again inside the servers.
  StaticCosts st;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ServiceJobInput& in = inputs[i];
    if (check_verdict(ctx, in.id, in.expected, setup.reports[i],
                      kServiceFrames)) {
      st.wrong_verdicts++;
    }
    replay_and_cost(ctx, in.id, setup.designs[i], in.job.detector_options(),
                    setup.reports[i], st);
    designs::Design design;
    st.verilog_read_us += time_us([&] {
      std::ifstream is(in.job.design_path);
      design.nl = verilog::read_verilog(is);
    });
    st.validate_us += time_us([&] { design.nl.validate(); });
    st.spec_load_us += time_us([&] {
      design.spec = specdsl::load_spec_file(design.nl, in.job.spec_path);
    });
  }

  const double window = ctx.quick ? 1.5 : ctx.seconds;
  ServiceLayers svc;
  LayerSums sums;

  const auto run_phase = [&](const std::string& endpoint, double rate,
                             double seconds, std::vector<double>& phase_ms,
                             const std::string& path) {
    std::vector<JobRecord> jobs =
        plan_phase(rng, rate, seconds, inputs.size(), kColdShare);
    open_loop(endpoint, inputs, jobs, serial, svc.connect_us);
    check_jobs(ctx, inputs, jobs, path);
    for (const JobRecord& r : jobs) {
      if (!r.ok) continue;
      // Timed from the due time: done - due = (done - sent) + lateness.
      const double ms = (seconds_between(r.sent, r.done) + r.lateness) * 1e3;
      phase_ms.push_back(ms);
      svc.lateness_ms.push_back(r.lateness * 1e3);
      if (path == "serve") {
        svc.computed += static_cast<double>(r.computed);
        svc.obligations += static_cast<double>(r.obligations);
      }
    }
  };

  std::vector<double> closed_times;
  const auto closed_phase = [&](const std::string& endpoint, bool fleet_path,
                                double seconds, std::vector<double>& times) {
    service::Client a(endpoint);
    service::Client b(endpoint);
    service::Client* const clients[2] = {&a, &b};
    double used = 0;
    do {
      std::vector<JobRecord> jobs(kClosedBatch);
      for (JobRecord& r : jobs) r.input = rng.next_below(inputs.size());
      const double s = closed_pass(inputs, jobs, serial, clients);
      used += s;
      times.push_back(s);
      check_jobs(ctx, inputs, jobs, fleet_path ? "fleet" : "serve");
      for (const JobRecord& r : jobs) {
        if (!r.ok) continue;
        (fleet_path ? svc.fleet_accept_us : svc.accept_us)
            .push_back(seconds_between(r.sent, r.accepted) * 1e6);
        (fleet_path ? svc.fleet_stream_us : svc.stream_us)
            .push_back(seconds_between(r.accepted, r.done) * 1e6);
      }
    } while (!ctx.quick && used < seconds);
  };

  // Traced and --quick runs go through every phase and path once, sharing
  // the window: each open-loop phase then holds over a thousand jobs at its
  // rate, so every p99 has ten samples beyond it, and serve-vs-fleet parity
  // is checked.
  const auto every_phase = [&] {
    const auto start = Clock::now();
    // The closed loop runs first, against the cache exactly as primed.
    closed_phase(stack->serve_endpoint(), false, 0.3 * window, closed_times);
    run_phase(stack->serve_endpoint(), kLightRate, 0.25 * window,
              svc.light_ms, "serve");
    run_phase(stack->serve_endpoint(), kHeavyRate, 0.2 * window, svc.heavy_ms,
              "serve");
    run_phase(stack->fleet_endpoint(), kLightRate, 0.25 * window,
              svc.fleet_ms, "fleet");
    std::vector<double> fleet_times;
    closed_phase(stack->fleet_endpoint(), true, 0.3 * window, fleet_times);
    return seconds_between(start, Clock::now());
  };
  if (ctx.trace) {
    traced_pass(sums, /*serial=*/false, every_phase);
  } else if (ctx.quick) {
    every_phase();
  } else {
    // An untraced run reports only the light-load latency (wall_s), so it
    // spends its whole window on that phase.
    run_phase(stack->serve_endpoint(), kLightRate, window, svc.light_ms,
              "serve");
  }

  const cache::CacheStats cs = stack->serve_cache().stats();
  svc.cache_hits = static_cast<double>(cs.hits);
  svc.cache_misses = static_cast<double>(cs.misses);
  svc.cache_entries = static_cast<double>(stack->serve_cache().entry_count());
  std::error_code ec;
  svc.cache_index_bytes = static_cast<double>(fs::file_size(
      fs::path(stack->serve_cache().dir()) / "index.txt", ec));
  svc.reshards = static_cast<double>(stack->coordinator().reshards());
  svc.retry_after =
      static_cast<double>(stack->coordinator().retry_after_sent());
  ctx.check(svc.reshards == 0, "the fleet re-sharded a job");
  stack.reset();

  const double lag = quantile(svc.lateness_ms, 0.99);
  if (lag > 5.0) {
    std::cerr << "warning: generator p99 lateness " << lag
              << " ms exceeds 5 ms; the arrival process was perturbed\n";
  }
  std::cerr << "service-mix samples: light " << svc.light_ms.size()
            << ", heavy " << svc.heavy_ms.size() << ", fleet "
            << svc.fleet_ms.size() << ", closed passes "
            << closed_times.size() << "\n";
  if (ctx.trace) {
    const double closed = fastest(closed_times);
    svc.closed_jobs_per_s =
        closed > 0 ? static_cast<double>(kClosedBatch) / closed : 0;
    emit_layers(ctx, sums, st, svc, kJobs);
  } else {
    // A served job's wall time: the lower quartile of the light-load jobs,
    // from their due times, where the warm path (elaboration, protocol,
    // cache reads, merge) sets the time. Above it sit jobs queued on their
    // connection behind a cold job's engine run, which swings with host
    // speed: over ten runs the median spread 8-13%, once 28%, and the lower
    // quartile 6-8% (README.md, "Noise"). The median and p99 are per-layer
    // metrics.
    ctx.metric("wall_s", quantile(svc.light_ms, 0.25) / 1e3, "s");
  }
}

// ---------------------------------------------------------------------------

int run(int argc, const char* const* argv) {
  const util::CliParser cli(argc, argv);
  Context ctx;
  ctx.workload = cli.get_string("workload", "");
  ctx.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  ctx.seconds = cli.get_double("seconds", 25);
  ctx.trace = cli.get_int("trace", 0) != 0;
  ctx.quick = cli.has("quick");
  ctx.root = cli.get_string("root", ".");
  ctx.work = ctx.root + "/.bench_build/work-" + std::to_string(::getpid());
  ctx.config = make_config(ctx.quick);
  static const std::set<std::string> kWorkloads = {
      "audit-cold", "audit-warm", "deep-unroll", "service-mix"};
  if (kWorkloads.count(ctx.workload) == 0 || ctx.seconds <= 0) {
    std::cerr << "usage: bench_e2e --workload=audit-cold|audit-warm|"
                 "deep-unroll|service-mix --seed=N --seconds=S --trace=0|1 "
                 "[--root=DIR] [--quick]\n";
    return 2;
  }
  util::set_log_level(util::LogLevel::kWarn);
  telemetry::Registry::global().set_enabled(false);

  try {
    const Oracle oracle(ctx.root + "/e2e_bench/e2e_expected.json");
    fs::remove_all(ctx.work);
    fs::create_directories(ctx.work);
    if (ctx.workload == "audit-cold") run_audit(ctx, oracle, /*warm=*/false);
    if (ctx.workload == "audit-warm") run_audit(ctx, oracle, /*warm=*/true);
    if (ctx.workload == "deep-unroll") run_deep(ctx, oracle);
    if (ctx.workload == "service-mix") run_service(ctx, oracle);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(ctx.work, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(ctx.work, ec);

  if (!ctx.trace) {
    ctx.metric("peak_rss_mb",
               static_cast<double>(util::peak_rss_bytes()) / (1 << 20), "MB");
  }
  for (const std::string& error : ctx.errors) {
    std::cerr << "CHECK FAILED: " << error << "\n";
  }
  Json out = Json::object();
  out.set("correct", ctx.errors.empty());
  out.set("attempted", static_cast<std::uint64_t>(ctx.attempted));
  out.set("failed", static_cast<std::uint64_t>(ctx.failed));
  out.set("metrics", ctx.metrics);
  std::cout << out.dump() << std::endl;
  return ctx.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace trojanscout::e2e

int main(int argc, char** argv) { return trojanscout::e2e::run(argc, argv); }
