// perfbench — the repository benchmark harness, one process per run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every run generates its graph from --seed through the gen layer, calls one
// public entry point repeatedly for S seconds, validates each solve
// from scratch with graph/validation and compares it with the run's first
// solve (the determinism contract). A throw, an invalid output or a mismatch
// counts as a failed solve; the run never aborts on one.
//
// --trace 0 (timed run) prints the end-to-end metrics. --trace 1 (traced run,
// same seed and inputs) records spans around each public call the benchmark
// makes, writes them to DIR as Chrome trace-event JSON plus a per-layer
// self-time table, and prints the per-layer metrics. Layers are measured
// from outside only: through their public functions and the counts their
// result structs return.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/active_set.h"
#include "mpcg.h"
#include "util/flags.h"

namespace {

using namespace mpcg;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

// ------------------------------------------------------------------ tracing

/// One timed interval around a public call, in seconds since the tracer's
/// epoch. `run` groups the spans of one traced solve.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

/// In-memory span recorder; written out once, at exit.
class Tracer {
 public:
  int open(std::string name, std::string layer) {
    spans_.push_back({std::move(name), std::move(layer), now(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  void next_run() { ++run_; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// A span's duration minus the part its direct children cover (children
  /// of one span never overlap: the benchmark is single-threaded).
  [[nodiscard]] double self_time(int id) const {
    double t = duration(id);
    for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
         ++i) {
      if (spans_[i].parent == id) t -= duration(static_cast<int>(i));
    }
    return t;
  }
  /// Summed self time of the spans named `name` that descend from `root`.
  [[nodiscard]] double self_time_of(int root, const std::string& name) const {
    double t = 0.0;
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
      if (spans_[i].name == name && descends(static_cast<int>(i), root)) {
        t += self_time(static_cast<int>(i));
      }
    }
    return t;
  }
  [[nodiscard]] bool descends(int id, int root) const {
    for (; id >= 0; id = spans_[static_cast<std::size_t>(id)].parent) {
      if (id == root) return true;
    }
    return false;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"run\":%d}}%s\n",
                    s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent, s.run,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  [[nodiscard]] double now() const { return since(epoch_); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

/// Scoped span; a null tracer records nothing (the timed run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer ? tracer->open(name, layer) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ------------------------------------------------------------------ solves

/// The end-to-end counts every workload reports; exact for a given seed.
struct Counts {
  std::size_t rounds = 0;
  std::size_t total_words = 0;
  std::size_t peak_machine_words = 0;
  double approx_ratio = 1.0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// Per-layer values by metric name (counts, or times from spans).
using LayerValues = std::map<std::string, double>;

struct Solve {
  /// Wall time of the public solver call(s), validation excluded.
  double seconds = 0.0;
  Counts counts;
  /// The outputs, bit for bit, for the determinism comparison.
  std::vector<std::uint64_t> outputs;
  /// Why validation rejected the outputs; empty when they are valid.
  std::string failure;
  LayerValues layer;
  /// The traced solve's root span (-1 untraced).
  int root = -1;
};

template <class T>
void append_bits(std::vector<std::uint64_t>& out, const std::vector<T>& v) {
  static_assert(sizeof(T) <= sizeof(std::uint64_t));
  out.push_back(v.size());
  for (const T& x : v) {
    std::uint64_t w = 0;
    std::memcpy(&w, &x, sizeof(T));
    out.push_back(w);
  }
}

void add_mpc_layer(LayerValues& layer, const mpc::Metrics& m,
                   std::size_t machines) {
  layer["mpc.rounds"] += static_cast<double>(m.rounds);
  layer["mpc.total_words"] += static_cast<double>(m.total_words);
  auto& sent = layer["mpc.max_sent_words"];
  sent = std::max(sent, static_cast<double>(m.max_sent_words));
  auto& recv = layer["mpc.max_received_words"];
  recv = std::max(recv, static_cast<double>(m.max_received_words));
  auto& peak = layer["mpc.peak_storage_words"];
  peak = std::max(peak, static_cast<double>(m.peak_storage_words));
  auto& mach = layer["mpc.machines"];
  mach = std::max(mach, static_cast<double>(machines));
}

template <class M>
void add_fault_layer(LayerValues& layer, const M& m) {
  layer["fault.faults_injected"] = static_cast<double>(m.faults_injected);
  layer["fault.rounds_replayed"] = static_cast<double>(m.rounds_replayed);
  layer["fault.words_resent"] = static_cast<double>(m.words_resent);
  layer["fault.words_retransmitted"] =
      static_cast<double>(m.words_retransmitted);
  layer["fault.store_words_repaired"] =
      static_cast<double>(m.store_words_repaired);
  layer["fault.checkpoint_bytes"] = static_cast<double>(m.checkpoint_bytes);
  layer["fault.scrub_passes"] = static_cast<double>(m.scrub_passes);
  layer["fault.disk_checkpoints"] =
      static_cast<double>(m.disk_checkpoints_written);
  layer["fault.disk_words"] = static_cast<double>(m.disk_checkpoint_words);
  const std::size_t injected =
      m.corruptions_injected + m.store_corruptions_injected;
  const std::size_t detected =
      m.corruptions_detected + m.store_corruptions_detected;
  layer["fault.detect_ratio"] =
      injected == 0 ? 1.0
                    : static_cast<double>(detected) /
                          static_cast<double>(injected);
}

std::size_t max_of(const std::vector<std::size_t>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}
std::size_t sum_of(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

// ---------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// The gen-layer call: the input graph, a pure function of the seed.
  [[nodiscard]] virtual Graph generate(std::uint64_t seed) const = 0;
  /// Untimed preparation on the generated graph, before the first solve.
  virtual void prepare(const Graph&, std::uint64_t) {}
  /// One solve: the workload's public solver call at `threads`, validated.
  /// With a tracer it records spans under the innermost open one (and may
  /// decompose the call into the public calls it is made of).
  [[nodiscard]] virtual Solve solve(const Graph& g, std::uint64_t seed,
                                    std::size_t threads, Tracer* tracer) = 0;
  /// Parity checks of a traced solve beyond output equality; empty = pass.
  [[nodiscard]] virtual std::string trace_parity(const Solve&) const {
    return {};
  }
  /// Setup repetitions per run (setup_s is their median).
  [[nodiscard]] virtual std::size_t setup_reps() const = 0;
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

/// Times `call`, recording it as a span named `name` in `layer`.
template <class F>
auto timed(Tracer* tracer, const char* name, const char* layer, double& secs,
           F&& call) {
  Scope scope(tracer, name, layer);
  const auto t0 = Clock::now();
  auto result = call();
  secs = since(t0);
  return result;
}

/// Times the solver calls of one solve into `s.seconds` inside the traced
/// solve's root span; validation runs after it, outside both.
template <class F>
auto solve_span(Tracer* tracer, Solve& s, F&& body) {
  Scope root(tracer, "solve", "bench");
  s.root = root.id();
  const auto t0 = Clock::now();
  auto result = body();
  s.seconds = since(t0);
  return result;
}

class MisMpcGnp final : public Workload {
 public:
  Graph generate(std::uint64_t seed) const override {
    constexpr std::size_t kN = std::size_t{1} << 18;
    Rng rng(mix64(seed, 0x6e70, kN));
    return erdos_renyi_gnp(kN, 96.0 / static_cast<double>(kN - 1), rng);
  }
  Solve solve(const Graph& g, std::uint64_t seed, std::size_t threads,
              Tracer* tracer) override {
    MisMpcOptions opt;
    opt.seed = seed;
    opt.threads = threads;
    Solve s;
    const MisMpcResult r = solve_span(tracer, s, [&] {
      Scope call(tracer, "mis_mpc", "core");
      return mis_mpc(g, opt);
    });
    {
      Scope check(tracer, "validate", "graph");
      if (!is_maximal_independent_set(g, r.mis)) {
        s.failure = "not a maximal independent set";
      }
    }
    s.counts = {r.metrics.rounds, r.metrics.total_words,
                r.metrics.peak_storage_words, 1.0};
    append_bits(s.outputs, r.mis);
    s.layer["core.rank_phases"] = static_cast<double>(r.rank_phases);
    s.layer["core.window_edges"] =
        static_cast<double>(sum_of(r.window_edges_per_phase));
    s.layer["core.sparsified_iterations"] =
        static_cast<double>(r.sparsified_iterations);
    s.layer["core.final_gather_edges"] =
        static_cast<double>(r.final_gather_edges);
    add_mpc_layer(s.layer, r.metrics, r.machines_used);
    add_fault_layer(s.layer, r.metrics);
    return s;
  }
  std::size_t setup_reps() const override { return 5; }
};

class MisCcPowerLaw final : public Workload {
 public:
  Graph generate(std::uint64_t seed) const override {
    return graph_family("power_law", std::size_t{1} << 19, seed);
  }
  Solve solve(const Graph& g, std::uint64_t seed, std::size_t threads,
              Tracer* tracer) override {
    MisCcliqueOptions opt;
    opt.seed = seed;
    opt.threads = threads;
    Solve s;
    const MisCcliqueResult r = solve_span(tracer, s, [&] {
      Scope call(tracer, "mis_cclique", "core");
      return mis_cclique(g, opt);
    });
    {
      Scope check(tracer, "validate", "graph");
      if (!is_maximal_independent_set(g, r.mis)) {
        s.failure = "not a maximal independent set";
      }
    }
    s.counts = {r.metrics.rounds, r.metrics.total_words,
                r.metrics.max_player_received, 1.0};
    append_bits(s.outputs, r.mis);
    s.layer["core.rank_phases"] = static_cast<double>(r.rank_phases);
    s.layer["core.window_edges"] =
        static_cast<double>(sum_of(r.window_edges_per_phase));
    s.layer["core.sparsified_iterations"] =
        static_cast<double>(r.sparsified_iterations);
    s.layer["core.final_gather_edges"] =
        static_cast<double>(r.final_gather_edges);
    s.layer["cclique.rounds"] = static_cast<double>(r.metrics.rounds);
    s.layer["cclique.total_words"] =
        static_cast<double>(r.metrics.total_words);
    s.layer["cclique.lenzen_batches"] =
        static_cast<double>(r.metrics.lenzen_batches);
    s.layer["cclique.max_player_sent"] =
        static_cast<double>(r.metrics.max_player_sent);
    s.layer["cclique.max_player_received"] =
        static_cast<double>(r.metrics.max_player_received);
    add_fault_layer(s.layer, r.metrics);
    return s;
  }
  std::size_t setup_reps() const override { return 9; }
};

void add_matching_phase_layer(LayerValues& layer,
                              const MatchingMpcResult& r) {
  layer["core.phases"] += static_cast<double>(r.phases);
  layer["core.iterations"] += static_cast<double>(r.total_iterations);
  layer["core.tail_iterations"] += static_cast<double>(r.tail_iterations);
  layer["core.frontier_edges"] +=
      static_cast<double>(sum_of(r.frontier_edges_per_phase));
  auto& local = layer["core.max_local_edges"];
  local = std::max(local,
                   static_cast<double>(max_of(r.max_local_edges_per_phase)));
  add_mpc_layer(layer, r.metrics, max_of(r.machines_per_phase));
}

/// `integral_matching` — the `mpcg_run --algo matching|vc` job. Traced, the
/// benchmark replays the call's own sequence of public calls (LMSV, then per
/// A-iteration: residual frontier, induced subgraph, MPC-Simulation, heavy
/// set, rounding retries) so each layer gets its own span; the replay must
/// return integral_matching's matching, cover and total_rounds exactly.
class MatchingPowerLawPar final : public Workload {
 public:
  static constexpr double kEps = 0.1;

  Graph generate(std::uint64_t seed) const override {
    return graph_family("power_law", std::size_t{1} << 16, seed);
  }
  Solve solve(const Graph& g, std::uint64_t seed, std::size_t threads,
              Tracer* tracer) override {
    Solve s;
    const IntegralMatchingResult r = solve_span(tracer, s, [&] {
      if (tracer != nullptr) return replay(g, seed, threads, *tracer, s.layer);
      IntegralMatchingOptions opt;
      opt.eps = kEps;
      opt.seed = seed;
      opt.simulation.threads = threads;
      return integral_matching(g, opt);
    });
    {
      Scope check(tracer, "validate", "graph");
      if (!is_matching(g, r.matching)) s.failure = "not a matching";
      if (!is_vertex_cover(g, r.cover)) s.failure = "not a vertex cover";
      if (r.matching.empty()) s.failure = "empty matching";
    }
    const auto& m = r.first_run_metrics;
    s.counts = {r.total_rounds, m.total_words, m.peak_storage_words,
                r.matching.empty()
                    ? 0.0
                    : static_cast<double>(r.cover.size()) /
                          static_cast<double>(r.matching.size())};
    append_bits(s.outputs, r.matching);
    append_bits(s.outputs, r.cover);
    s.outputs.push_back(r.iterations);
    s.outputs.push_back(r.a_path_size);
    s.outputs.push_back(r.small_path_size);
    s.layer["core.a_iterations"] = static_cast<double>(r.iterations);
    add_fault_layer(s.layer, m);
    return s;
  }
  std::size_t setup_reps() const override { return 25; }
  std::size_t threads() const override { return 4; }

 private:
  /// integral_matching's body, call for call (see core/integral_matching.cpp),
  /// with the matching_mpc phase counters summed over A-iterations.
  static IntegralMatchingResult replay(const Graph& g, std::uint64_t seed,
                                       std::size_t threads, Tracer& tracer,
                                       LayerValues& layer) {
    IntegralMatchingResult result;
    const std::size_t n = g.num_vertices();
    const auto max_iterations = static_cast<std::size_t>(std::min(
        std::ceil(std::log(1.0 / kEps) / std::log(150.0 / 149.0)), 60.0));
    const std::size_t lmsv_memory = 8 * std::max<std::size_t>(n, 64);

    LmsvResult small;
    {
      Scope s(&tracer, "lmsv_maximal_matching", "baselines");
      small = lmsv_maximal_matching(g, lmsv_memory, mix64(seed, 0x5a11, 3));
    }
    result.small_path_size = small.matching.size();
    result.total_rounds += small.rounds;
    layer["baselines.lmsv_rounds"] = static_cast<double>(small.rounds);

    std::vector<EdgeId> a_matching;
    ActiveSet remaining_set(n);
    std::vector<VertexId> remaining;
    std::size_t heavy = 0;
    std::size_t rounded_total = 0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      {
        Scope s(&tracer, "ActiveSet::actives", "graph");
        const auto actives = remaining_set.actives();
        remaining.assign(actives.begin(), actives.end());
      }
      layer["graph.residual_vertices"] += static_cast<double>(remaining.size());
      InducedSubgraph sub;
      {
        Scope s(&tracer, "induced_subgraph", "graph");
        sub = induced_subgraph(g, remaining);
      }
      if (sub.graph.num_edges() == 0) break;

      MatchingMpcOptions sim;
      sim.eps = kEps;
      sim.seed = mix64(seed, 0xa1, iter);
      sim.threshold_seed = mix64(seed, 0xa2, iter);
      sim.collect_support = true;
      sim.threads = threads;
      MatchingMpcResult frac;
      {
        Scope s(&tracer, "matching_mpc", "core");
        frac = matching_mpc(sub.graph, sim);
      }
      result.total_rounds += frac.metrics.rounds;
      add_matching_phase_layer(layer, frac);
      if (iter == 0) {
        Scope s(&tracer, "fractional_weight", "graph");
        result.cover.reserve(frac.cover.size());
        for (const VertexId lv : frac.cover) {
          result.cover.push_back(sub.to_parent_vertex[lv]);
        }
        result.first_fractional_weight = fractional_weight(frac.x);
        result.first_run_rounds = frac.metrics.rounds;
        result.first_run_metrics = frac.metrics;
      }

      std::vector<VertexId> candidates;
      {
        Scope s(&tracer, "heavy_vertices", "core");
        candidates = heavy_vertices(sub.graph, frac.x, 1.0 - 5.0 * kEps,
                                    frac.support);
      }
      heavy += candidates.size();
      std::vector<EdgeId> rounded;
      {
        Scope s(&tracer, "round_fractional_matching", "core");
        for (std::size_t retry = 0; !candidates.empty() && retry < 8;
             ++retry) {
          rounded = round_fractional_matching(
              sub.graph, frac.x, candidates,
              mix64(seed, 0xb000 + retry, iter));
          if (!rounded.empty()) break;
        }
      }
      rounded_total += rounded.size();
      ++result.iterations;
      if (rounded.empty()) break;
      Scope s(&tracer, "ActiveSet::deactivate", "graph");
      for (const EdgeId le : rounded) {
        const Edge ed = sub.graph.edge(le);
        a_matching.push_back(sub.to_parent_edge[le]);
        remaining_set.deactivate(sub.to_parent_vertex[ed.u]);
        remaining_set.deactivate(sub.to_parent_vertex[ed.v]);
      }
    }
    result.a_path_size = a_matching.size();
    result.matching = result.a_path_size >= result.small_path_size
                          ? std::move(a_matching)
                          : small.matching;
    layer["core.rounding_yield"] =
        heavy == 0 ? 0.0
                   : static_cast<double>(rounded_total) /
                         static_cast<double>(heavy);
    return result;
  }
};

/// `matching_mpc` as a vertex-cover job under chaos: a seeded fault storm,
/// integrity checking, scrubbing and on-disk checkpoints all armed. Traced,
/// the same call runs four times arming one layer per step; every step must
/// return the clean run's cover and x bits.
class VcRmatChaos final : public Workload {
 public:
  explicit VcRmatChaos(std::string checkpoint_dir)
      : checkpoint_dir_(std::move(checkpoint_dir)) {}
  ~VcRmatChaos() override {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_, ec);
  }
  VcRmatChaos(const VcRmatChaos&) = delete;
  VcRmatChaos& operator=(const VcRmatChaos&) = delete;

  Graph generate(std::uint64_t seed) const override {
    return graph_family("rmat", std::size_t{1} << 18, seed);
  }
  /// Sizes the storm to the clean run's round count.
  void prepare(const Graph& g, std::uint64_t seed) override {
    const MatchingMpcResult clean = matching_mpc(g, options(seed, 0, 1));
    plan_ = fault::FaultPlan::random_storm(mix64(seed, 0xc4a05), 512,
                                           clean.metrics.rounds, 16);
  }
  Solve solve(const Graph& g, std::uint64_t seed, std::size_t threads,
              Tracer* tracer) override {
    Solve s;
    double step_s[kSteps] = {};
    const MatchingMpcResult r = solve_span(tracer, s, [&] {
      if (tracer == nullptr) {
        return matching_mpc(g, options(seed, kSteps - 1, threads));
      }
      static constexpr const char* kNames[kSteps] = {
          "matching_mpc[clean]", "matching_mpc[+integrity]",
          "matching_mpc[+faults+scrub]", "matching_mpc[+durable]"};
      static constexpr const char* kLayers[kSteps] = {"core", "fault",
                                                      "fault", "fault"};
      MatchingMpcResult step_r;
      std::vector<std::uint64_t> clean_bits;
      for (std::size_t step = 0; step < kSteps; ++step) {
        step_r = timed(tracer, kNames[step], kLayers[step], step_s[step], [&] {
          return matching_mpc(g, options(seed, step, threads));
        });
        std::vector<std::uint64_t> bits;
        append_bits(bits, step_r.x);
        append_bits(bits, step_r.cover);
        if (step == 0) {
          clean_bits = std::move(bits);
        } else if (bits != clean_bits) {
          parity_failure_ = std::string(kNames[step]) +
                            " changed the cover or the x bits";
        }
      }
      return step_r;
    });
    if (tracer != nullptr) {
      // The fully armed step is the workload's own call.
      s.seconds = step_s[kSteps - 1];
      s.layer["core.sim_s"] = step_s[0];
      s.layer["fault.integrity_s"] = step_s[1] - step_s[0];
      s.layer["fault.recovery_s"] = step_s[2] - step_s[1];
      s.layer["fault.durable_s"] = step_s[3] - step_s[2];
    }
    const auto& m = r.metrics;
    {
      Scope check(tracer, "validate", "graph");
      if (!is_vertex_cover(g, r.cover)) s.failure = "not a vertex cover";
      if (!is_fractional_matching(g, r.x)) {
        s.failure = "not a fractional matching";
      }
    }
    if (m.faults_injected == 0 || m.scrub_passes == 0 ||
        m.disk_checkpoints_written == 0) {
      s.failure = "a chaos layer stayed disarmed";
    }
    if (m.corruptions_detected != m.corruptions_injected ||
        m.store_corruptions_detected != m.store_corruptions_injected) {
      s.failure = "undetected corruption";
    }
    const double weight = fractional_weight(r.x);
    s.counts = {m.rounds, m.total_words, m.peak_storage_words,
                weight > 0.0 ? static_cast<double>(r.cover.size()) / weight
                             : 0.0};
    append_bits(s.outputs, r.x);
    append_bits(s.outputs, r.cover);
    add_matching_phase_layer(s.layer, r);
    add_fault_layer(s.layer, m);
    return s;
  }
  std::string trace_parity(const Solve&) const override {
    return parity_failure_;
  }
  std::size_t setup_reps() const override { return 9; }

 private:
  static constexpr std::size_t kSteps = 4;

  /// The vc options with the first `armed` chaos layers switched on:
  /// 1 integrity, 2 the fault storm plus scrub, 3 on-disk checkpoints.
  MatchingMpcOptions options(std::uint64_t seed, std::size_t armed,
                             std::size_t threads) const {
    MatchingMpcOptions opt;
    opt.eps = 0.1;
    opt.seed = seed;
    opt.threshold_seed = seed;
    opt.threads = threads;
    opt.integrity = armed >= 1;
    if (armed >= 2) {
      opt.fault_plan = &plan_;
      opt.scrub_interval = 8;
    }
    if (armed >= 3) opt.durable.dir = checkpoint_dir_;
    return opt;
  }

  std::string checkpoint_dir_;
  fault::FaultPlan plan_;
  std::string parity_failure_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir) {
  if (name == "mis-mpc-gnp") return std::make_unique<MisMpcGnp>();
  if (name == "mis-cc-powerlaw") return std::make_unique<MisCcPowerLaw>();
  if (name == "matching-powerlaw-par") {
    return std::make_unique<MatchingPowerLawPar>();
  }
  if (name == "vc-rmat-chaos") {
    return std::make_unique<VcRmatChaos>(
        out_dir + "/checkpoints-" + std::to_string(::getpid()));
  }
  return nullptr;
}

// ------------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Same names and units as BENCHMARK.json's per_layer list.
constexpr MetricDef kLayerMetrics[] = {
    {"gen.s", "s"},
    {"gen.edges", "count"},
    {"graph.induced_subgraph_s", "s"},
    {"graph.residual_vertices", "count"},
    {"core.sim_s", "s"},
    {"core.rounding_s", "s"},
    {"core.rounding_yield", "ratio"},
    {"core.a_iterations", "count"},
    {"core.phases", "count"},
    {"core.iterations", "count"},
    {"core.tail_iterations", "count"},
    {"core.frontier_edges", "count"},
    {"core.max_local_edges", "count"},
    {"core.rank_phases", "count"},
    {"core.window_edges", "count"},
    {"core.sparsified_iterations", "count"},
    {"core.final_gather_edges", "count"},
    {"baselines.lmsv_s", "s"},
    {"baselines.lmsv_rounds", "count"},
    {"mpc.rounds", "count"},
    {"mpc.total_words", "words"},
    {"mpc.max_sent_words", "words"},
    {"mpc.max_received_words", "words"},
    {"mpc.peak_storage_words", "words"},
    {"mpc.machines", "count"},
    {"mpc.pool_speedup", "ratio"},
    {"cclique.rounds", "count"},
    {"cclique.total_words", "words"},
    {"cclique.lenzen_batches", "count"},
    {"cclique.max_player_sent", "words"},
    {"cclique.max_player_received", "words"},
    {"fault.integrity_s", "s"},
    {"fault.recovery_s", "s"},
    {"fault.durable_s", "s"},
    {"fault.faults_injected", "count"},
    {"fault.rounds_replayed", "count"},
    {"fault.words_resent", "words"},
    {"fault.words_retransmitted", "words"},
    {"fault.store_words_repaired", "words"},
    {"fault.checkpoint_bytes", "bytes"},
    {"fault.scrub_passes", "count"},
    {"fault.disk_checkpoints", "count"},
    {"fault.disk_words", "words"},
    {"fault.detect_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"host.ref_s", "s"},
};

volatile std::uint64_t g_host_ref_sink = 0;

/// Host-speed diagnostic, independent of the library: a 4 MiB pointer
/// chase over one random cycle, mixed with integer arithmetic. Printed
/// beside the metrics so a noisy run can be traced to the host; it never
/// normalizes a metric.
double host_ref_seconds() {
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0U);
  Rng rng(0x7265665fULL);
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng() % i]);
  }
  std::vector<double> samples;
  std::uint64_t acc = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::uint32_t p = 0;
    for (std::size_t i = 0; i < 4 * kSlots; ++i) {
      p = next[p];
      acc = splitmix64(acc ^ p);
    }
    samples.push_back(since(t0));
  }
  g_host_ref_sink = acc;
  return median(samples);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Tallies solves against the run's first valid solve.
class Ledger {
 public:
  /// Runs `attempt`, validates it, and compares it with the reference.
  /// Returns the solve when it passed, nothing otherwise.
  template <class F>
  const Solve* record(F&& attempt) {
    ++attempted_;
    try {
      last_ = attempt();
    } catch (const std::exception& ex) {
      fail(std::string("threw: ") + ex.what());
      return nullptr;
    }
    if (!last_.failure.empty()) {
      fail(last_.failure);
      return nullptr;
    }
    if (!reference_) {
      reference_ = std::make_unique<Solve>(last_);
    } else if (last_.outputs != reference_->outputs ||
               !(last_.counts == reference_->counts)) {
      fail("outputs or counts differ from the run's first solve");
      return nullptr;
    }
    return &last_;
  }
  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: failed solve: %s\n", why.c_str());
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const Solve* reference() const { return reference_.get(); }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  Solve last_;
  std::unique_ptr<Solve> reference_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral;
};

void print_result(const Ledger& ledger, bool correct,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    if (m.integral) {
      std::snprintf(value, sizeof(value), "%.0f", m.value);
    } else {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_kv(const char* key, double value) {
  std::printf("%s\t%.6g\n", key, value);
}

/// Prints the samples in the order they were taken.
void print_samples(const char* key, const std::vector<double>& samples) {
  std::printf("%s\t", key);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::printf(i == 0 ? "%.4f" : ",%.4f", samples[i]);
  }
  std::printf("\n");
}

/// (Re)builds the workload's graph into `g` and records the build time. The
/// previous copy is released first, so peak RSS holds one graph.
void build_graph(const Workload& w, std::uint64_t seed, Graph& g,
                 std::vector<double>& samples) {
  g = Graph();
  const auto t0 = Clock::now();
  g = w.generate(seed);
  samples.push_back(since(t0));
}

int timed_run(Workload& w, std::uint64_t seed, double seconds) {
  print_kv("host.ref_s", host_ref_seconds());
  std::vector<double> setup;
  Graph g;
  build_graph(w, seed, g, setup);
  print_kv("n", static_cast<double>(g.num_vertices()));
  print_kv("m", static_cast<double>(g.num_edges()));
  print_kv("max_degree", static_cast<double>(g.max_degree()));
  w.prepare(g, seed);

  // The first solve is the warm-up and the reference (its first-touch
  // faults are not timed); every later one is timed for `seconds`. Peak RSS
  // is read here: one build plus one solve, as a user's job pays it. The
  // remaining setup repetitions are spread evenly over the window, between
  // solves: on shared machines the host's speed drifts over seconds and a
  // graph's memory placement can shift the speed of the solves reading it, so
  // both medians should sample the whole window and several placements. A
  // rebuilt graph must give the reference outputs again.
  Ledger ledger;
  ledger.record([&] { return w.solve(g, seed, w.threads(), nullptr); });
  const double rss_mb = peak_rss_mb();
  std::vector<double> solve;
  const auto reps = static_cast<double>(w.setup_reps());
  const auto t0 = Clock::now();
  while ((since(t0) < seconds || solve.size() < 3) && ledger.failed() < 3) {
    const auto taken = static_cast<double>(setup.size());
    if (taken < reps && since(t0) >= seconds * taken / reps) {
      build_graph(w, seed, g, setup);
      continue;
    }
    if (const Solve* s = ledger.record(
            [&] { return w.solve(g, seed, w.threads(), nullptr); })) {
      solve.push_back(s->seconds);
    }
  }

  print_samples("setup_samples_s", setup);
  print_samples("solve_samples_s", solve);
  std::sort(solve.begin(), solve.end());
  print_kv("solve_samples", static_cast<double>(solve.size()));
  if (!solve.empty()) {
    print_kv("solve_min_s", solve.front());
    print_kv("solve_max_s", solve.back());
    // Highest percentile with at least ten samples beyond it.
    if (solve.size() >= 11) {
      const std::size_t k = solve.size() - 11;
      std::printf("solve_p%.0f_s\t%.6g\n",
                  100.0 * static_cast<double>(k + 1) /
                      static_cast<double>(solve.size()),
                  solve[k]);
    }
  }
  print_kv("fail_frac", static_cast<double>(ledger.failed()) /
                            static_cast<double>(ledger.attempted()));

  const Counts c = ledger.reference() ? ledger.reference()->counts : Counts{};
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup), "s", false},
      {"solve_s", median(solve), "s", false},
      {"peak_rss_mb", rss_mb, "MB", false},
      {"rounds", static_cast<double>(c.rounds), "count", true},
      {"total_words", static_cast<double>(c.total_words), "words", true},
      {"peak_machine_words", static_cast<double>(c.peak_machine_words),
       "words", true},
      {"approx_ratio", c.approx_ratio, "ratio", false},
  };
  print_result(ledger, ledger.failed() == 0 && !solve.empty(), metrics);
  return 0;
}

/// Layer-time metrics drawn from span self times, by public call (the vc
/// workload reports its ablation deltas itself).
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"induced_subgraph", "graph.induced_subgraph_s"},
    {"matching_mpc", "core.sim_s"},
    {"heavy_vertices", "core.rounding_s"},
    {"round_fractional_matching", "core.rounding_s"},
    {"lmsv_maximal_matching", "baselines.lmsv_s"},
};

bool is_time(const std::string& key) {
  return key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0;
}

int traced_run(Workload& w, const std::string& name, std::uint64_t seed,
               double seconds, const std::string& out_dir) {
  LayerValues layer;
  for (const MetricDef& d : kLayerMetrics) layer[d.name] = 0.0;
  layer["host.ref_s"] = host_ref_seconds();

  Tracer tracer;
  const int gen = tracer.open("generate", "gen");
  const Graph g = w.generate(seed);
  tracer.close(gen);
  layer["gen.s"] = tracer.duration(gen);
  layer["gen.edges"] = static_cast<double>(g.num_edges());
  w.prepare(g, seed);

  Ledger ledger;
  std::vector<std::string> invalid;
  ledger.record([&] { return w.solve(g, seed, w.threads(), nullptr); });

  // Alternate traced and untraced solves; each traced solve is one trace
  // run. Layer times are medians over the traced solves.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::map<std::string, std::vector<double>> layer_times;
  std::vector<int> roots;
  const auto t0 = Clock::now();
  while (traced_s.empty() || since(t0) < seconds) {
    tracer.next_run();
    const Solve* s =
        ledger.record([&] { return w.solve(g, seed, w.threads(), &tracer); });
    if (s == nullptr) {
      invalid.push_back("a traced solve failed validation or parity");
      break;
    }
    if (std::string parity = w.trace_parity(*s); !parity.empty()) {
      invalid.push_back(std::move(parity));
    }
    const int root = s->root;
    roots.push_back(root);
    traced_s.push_back(s->seconds);
    LayerValues times;
    for (const auto& [key, value] : s->layer) {
      if (is_time(key)) {
        times[key] = value;
      } else {
        layer[key] = value;
      }
    }
    for (const auto& [call, key] : kSpanMetrics) {
      times[key] += tracer.self_time_of(root, call);
    }
    for (const auto& [key, value] : times) layer_times[key].push_back(value);
    if (const Solve* u = ledger.record(
            [&] { return w.solve(g, seed, w.threads(), nullptr); })) {
      untraced_s.push_back(u->seconds);
    }
  }
  for (const auto& [key, values] : layer_times) layer[key] = median(values);

  // The pool comparison: the same call at the other backend width, which
  // must return the same outputs.
  const std::size_t other = w.threads() == 1 ? 4 : 1;
  double other_s = 0.0;
  if (const Solve* o =
          ledger.record([&] { return w.solve(g, seed, other, nullptr); })) {
    other_s = o->seconds;
  } else {
    invalid.push_back("threads " + std::to_string(other) +
                      " changed the outputs");
  }
  const double untraced = median(untraced_s);
  if (other_s > 0.0 && untraced > 0.0) {
    layer["mpc.pool_speedup"] =
        w.threads() == 1 ? untraced / other_s : other_s / untraced;
  }
  const double traced = median(traced_s);
  layer["trace.overhead"] = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;

  // Per-layer self-time table over every traced solve; what the root span
  // keeps for itself is the benchmark's own share.
  std::map<std::string, std::pair<std::string, double>> by_call;
  double total = 0.0;
  double uncovered = 0.0;
  for (const int root : roots) {
    total += tracer.duration(root);
    uncovered += tracer.self_time(root);
    for (std::size_t i = static_cast<std::size_t>(root) + 1;
         i < tracer.spans().size(); ++i) {
      const Span& sp = tracer.spans()[i];
      if (!tracer.descends(static_cast<int>(i), root)) continue;
      by_call[sp.name].first = sp.layer;
      by_call[sp.name].second += tracer.self_time(static_cast<int>(i));
    }
  }
  layer["trace.coverage"] = total > 0.0 ? 1.0 - uncovered / total : 0.0;
  if (layer["trace.coverage"] < 0.95) {
    invalid.push_back("layer self times cover under 95% of the traced solve");
  }

  std::filesystem::create_directories(out_dir);
  const std::string stem =
      out_dir + "/" + name + "-seed" + std::to_string(seed);
  tracer.write_chrome_json(stem + ".trace.json");
  std::ofstream table(stem + ".layers.tsv");
  table << "call\tlayer\tself_s\tshare_of_traced_solve\n";
  std::printf("# self time per public call over %zu traced solve(s), %.4f s\n",
              roots.size(), total);
  by_call["(benchmark)"] = {"bench", uncovered};
  for (const auto& [call, entry] : by_call) {
    char row[256];
    std::snprintf(row, sizeof(row), "%s\t%s\t%.6f\t%.4f\n", call.c_str(),
                  entry.first.c_str(), entry.second,
                  total > 0.0 ? entry.second / total : 0.0);
    table << row;
    std::printf("%s", row);
  }
  print_kv("traced_solve_s", traced);
  print_kv("untraced_solve_s", untraced);
  print_kv("trace.overhead", layer["trace.overhead"]);
  for (const std::string& why : invalid) {
    std::printf("trace_invalid\t%s\n", why.c_str());
  }
  print_kv("trace_valid", invalid.empty() ? 1.0 : 0.0);

  std::vector<Metric> metrics;
  for (const MetricDef& d : kLayerMetrics) {
    const std::string unit = d.unit;
    metrics.push_back(
        {d.name, layer[d.name], unit, unit != "s" && unit != "ratio"});
  }
  print_result(ledger, ledger.failed() == 0 && invalid.empty(), metrics);
  return 0;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const std::int64_t trace = flags.get_int("trace", 0);
  const std::string out_dir = flags.get_string("out", "perfbench-out");
  if (const auto unused = flags.unused(); !unused.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unused.front().c_str());
    return 2;
  }
  if ((trace != 0 && trace != 1) || seconds <= 0.0) {
    std::fprintf(stderr, "--trace must be 0 or 1 and --seconds positive\n");
    return 2;
  }
  auto w = make_workload(name, out_dir);
  if (!w) {
    std::fprintf(stderr,
                 "unknown --workload '%s' (want mis-mpc-gnp|mis-cc-powerlaw|"
                 "matching-powerlaw-par|vc-rmat-chaos)\n",
                 name.c_str());
    return 2;
  }
  std::printf("workload\t%s\nseed\t%llu\nthreads\t%zu\n", name.c_str(),
              static_cast<unsigned long long>(seed), w->threads());
  return trace == 1 ? traced_run(*w, name, seed, seconds, out_dir)
                    : timed_run(*w, seed, seconds);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
