// E6 (Lemma 4.2): MPC-Simulation runs O(log log n) phases with O(n) words
// per machine and yields a (2+50eps) fractional matching + vertex cover,
// with at least |C|/3 of the cover at load >= 1-5eps.
//
// Table rows: n sweep (phase shape + memory) and family sweep at fixed n
// (approximation, with exact nu). Shape: `phases` grows ~additively as n is
// squared; `matching_factor` stays well under 2+50eps (claimed_factor);
// `cover_heavy_fraction` >= 1/3.
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "baselines/blossom.h"
#include "bench_util.h"
#include "core/matching_mpc.h"
#include "fault/fault_plan.h"
#include "graph/validation.h"

namespace {

using namespace mpcg;
using namespace mpcg::bench;

constexpr double kEps = 0.1;

MatchingMpcOptions opts(std::uint64_t seed) {
  MatchingMpcOptions o;
  o.eps = kEps;
  o.seed = seed;
  o.threshold_seed = seed + 1;
  return o;
}

void E06_PhasesVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 13);
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, opts(13));
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  emit_json_line("E06_PhasesVsN/" + std::to_string(n), n, g.num_edges(),
                 r.metrics.rounds, wall_ms, r.metrics.peak_storage_words);
  std::size_t max_local = 0;
  for (const std::size_t e : r.max_local_edges_per_phase) {
    max_local = std::max(max_local, e);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["phases"] = static_cast<double>(r.phases);
  state.counters["loglog_n"] = log2log2(static_cast<double>(n));
  state.counters["engine_rounds"] = static_cast<double>(r.metrics.rounds);
  state.counters["tail_iterations"] = static_cast<double>(r.tail_iterations);
  state.counters["max_local_edges_over_n"] =
      static_cast<double>(max_local) / static_cast<double>(n);
  state.counters["violations"] = static_cast<double>(r.metrics.violations);
  // Residual frontier: phase work is proportional to these counts.
  if (!r.active_per_phase.empty()) {
    state.counters["frontier_first_phase"] =
        static_cast<double>(r.active_per_phase.front());
    state.counters["frontier_last_phase"] =
        static_cast<double>(r.active_per_phase.back());
  }
}
BENCHMARK(E06_PhasesVsN)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    // 2^18 is the CI smoke row for the matching driver: big enough that
    // the per-phase frontier loops dominate (what the ActiveSet port
    // targets), small enough for a PR-gate budget.
    ->Arg(1 << 18)
    // 2^20 runs ~1024 simulation machines and the
    // announce() gather+broadcast traffic dominates — the broadcast-heavy
    // row the zero-copy message plane is tuned against.
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Frontier-decay rows: workloads whose active frontier collapses early
// (rmat's skewed degrees, star's hub freeze) rather than staying ~full
// until the tail like gnp. Phase edge work is ActiveArcs-proportional, so
// these rows are where the second-level compaction shows: the per-phase
// frontier-arc counters report how fast the scanned edge set shrinks
// relative to the (alive) edge set a frontier-insensitive scan would keep
// touching.
void E06_FrontierDecay(benchmark::State& state, const char* family) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = graph_family(family, n, 19);
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, opts(19));
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  emit_json_line(std::string("E06_FrontierDecay/") + family + "/" +
                     std::to_string(n),
                 n, g.num_edges(), r.metrics.rounds, wall_ms,
                 r.metrics.peak_storage_words);
  state.counters["n"] = static_cast<double>(n);
  state.counters["phases"] = static_cast<double>(r.phases);
  state.counters["engine_rounds"] = static_cast<double>(r.metrics.rounds);
  // Per-phase frontier-arc telemetry: total arcs the distribute loops
  // scanned across the run, versus what a full alive-arc rescan per phase
  // would have cost — the ActiveArcs win is the ratio.
  std::size_t frontier_arc_total = 0;
  for (const std::size_t e : r.frontier_edges_per_phase) {
    frontier_arc_total += e;
  }
  state.counters["frontier_arcs_total"] =
      static_cast<double>(frontier_arc_total);
  state.counters["full_rescan_arcs"] =
      static_cast<double>(g.num_edges() * r.phases);
  state.counters["frontier_arc_fraction"] =
      r.phases == 0 ? 1.0
                    : static_cast<double>(frontier_arc_total) /
                          static_cast<double>(g.num_edges() * r.phases);
  if (!r.frontier_edges_per_phase.empty()) {
    state.counters["frontier_edges_first_phase"] =
        static_cast<double>(r.frontier_edges_per_phase.front());
    state.counters["frontier_edges_last_phase"] =
        static_cast<double>(r.frontier_edges_per_phase.back());
  }
  if (!r.active_per_phase.empty()) {
    state.counters["frontier_last_phase"] =
        static_cast<double>(r.active_per_phase.back());
  }
}

void E06_Approximation(benchmark::State& state, const char* family) {
  const Graph g = graph_family(family, 1 << 10, 17);
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, opts(17));
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  emit_json_line(std::string("E06_Approximation/") + family, g.num_vertices(),
                 g.num_edges(), r.metrics.rounds, wall_ms,
                 r.metrics.peak_storage_words);
  const double nu = static_cast<double>(maximum_matching_size(g));
  const double w = fractional_weight(r.x);
  const auto loads = vertex_loads(g, r.x);
  std::size_t heavy = 0;
  for (const VertexId v : r.cover) {
    if (loads[v] >= 1.0 - 5.0 * kEps) ++heavy;
  }
  state.counters["nu"] = nu;
  state.counters["fractional_weight"] = w;
  state.counters["matching_factor"] = w > 0 ? nu / w : 0.0;
  state.counters["claimed_factor"] = 2.0 + 50.0 * kEps;
  state.counters["cover_over_nu"] =
      nu > 0 ? static_cast<double>(r.cover.size()) / nu : 0.0;
  state.counters["cover_heavy_fraction"] =
      r.cover.empty() ? 1.0
                      : static_cast<double>(heavy) /
                            static_cast<double>(r.cover.size());
}

// Fault-recovery overhead: the same run with a pinned crash schedule,
// recovered through the round-level checkpoint. Copy-on-fault
// checkpointing means fault-free rounds pay one branch, so the measured
// overhead (overhead_pct) should stay under ~10% wall-clock; the outputs
// are bit-identical either way (asserted here, pinned by
// tests/fault_tolerance_test.cpp).
void E06_FaultRecovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 13);
  const MatchingMpcOptions clean_opt = opts(13);

  MatchingMpcResult clean;
  double clean_ms = 0.0;
  {
    const WallTimer timer;
    clean = matching_mpc(g, clean_opt);
    clean_ms = timer.elapsed_ms();
  }
  const fault::FaultPlan plan = fault::FaultPlan::random_crashes(
      /*seed=*/13, /*num_machines=*/4,
      std::max<std::size_t>(1, clean.metrics.rounds), /*count=*/5);
  MatchingMpcOptions faulty_opt = clean_opt;
  faulty_opt.fault_plan = &plan;

  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, faulty_opt);
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  const bool identical = r.x == clean.x && r.cover == clean.cover &&
                         r.freeze_iteration == clean.freeze_iteration &&
                         r.metrics.rounds == clean.metrics.rounds;
  const double overhead_pct =
      clean_ms > 0.0 ? 100.0 * (wall_ms - clean_ms) / clean_ms : 0.0;
  emit_json_line("E06_FaultRecovery/" + std::to_string(n), n, g.num_edges(),
                 r.metrics.rounds, wall_ms, r.metrics.peak_storage_words);
  state.counters["n"] = static_cast<double>(n);
  state.counters["clean_ms"] = clean_ms;
  state.counters["faulty_ms"] = wall_ms;
  state.counters["overhead_pct"] = overhead_pct;
  state.counters["recovery_identical"] = identical ? 1.0 : 0.0;
  state.counters["faults_injected"] =
      static_cast<double>(r.metrics.faults_injected);
  state.counters["rounds_replayed"] =
      static_cast<double>(r.metrics.rounds_replayed);
  state.counters["words_resent"] = static_cast<double>(r.metrics.words_resent);
  state.counters["checkpoint_bytes"] =
      static_cast<double>(r.metrics.checkpoint_bytes);
}
BENCHMARK(E06_FaultRecovery)
    ->Arg(1 << 14)
    // 2^16 is the acceptance row: recovery overhead under 10% wall-clock.
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Integrity overhead: the same fault-free run with per-sender stream
// checksums armed. The checksum is one xor-multiply folded at append time
// plus one digest comparison per (sender, round) at delivery, so the
// acceptance row (2^16) wants overhead_pct under ~5%; with integrity off
// the cost is exactly one branch per flush (overhead_off_pct ~ 0).
void E06_IntegrityOverhead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 13);
  const MatchingMpcOptions clean_opt = opts(13);

  MatchingMpcResult clean;
  double clean_ms = 0.0;
  {
    const WallTimer timer;
    clean = matching_mpc(g, clean_opt);
    clean_ms = timer.elapsed_ms();
  }

  MatchingMpcOptions integrity_opt = clean_opt;
  integrity_opt.integrity = true;
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, integrity_opt);
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  // A second clean pass bounds the no-integrity overhead (the single
  // branch per flush) against run-to-run noise.
  double off_ms = 0.0;
  {
    const WallTimer timer;
    const auto again = matching_mpc(g, clean_opt);
    off_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(again.x.data());
  }

  const bool identical = r.x == clean.x && r.cover == clean.cover &&
                         r.freeze_iteration == clean.freeze_iteration &&
                         r.metrics.rounds == clean.metrics.rounds &&
                         r.metrics.total_words == clean.metrics.total_words;
  emit_json_line("E06_IntegrityOverhead/" + std::to_string(n), n,
                 g.num_edges(), r.metrics.rounds, wall_ms,
                 r.metrics.peak_storage_words);
  state.counters["n"] = static_cast<double>(n);
  state.counters["clean_ms"] = clean_ms;
  state.counters["integrity_ms"] = wall_ms;
  state.counters["overhead_pct"] =
      clean_ms > 0.0 ? 100.0 * (wall_ms - clean_ms) / clean_ms : 0.0;
  state.counters["overhead_off_pct"] =
      clean_ms > 0.0 ? 100.0 * (off_ms - clean_ms) / clean_ms : 0.0;
  state.counters["integrity_identical"] = identical ? 1.0 : 0.0;
  // Clean runs under integrity must never charge the repair fields.
  state.counters["corruptions_detected"] =
      static_cast<double>(r.metrics.corruptions_detected);
  state.counters["words_retransmitted"] =
      static_cast<double>(r.metrics.words_retransmitted);
}
BENCHMARK(E06_IntegrityOverhead)
    ->Arg(1 << 14)
    // 2^16 is the acceptance row: checksum overhead under 5% wall-clock.
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Durable-store integrity overhead: the same workload with the per-blob
// store digests, a round-boundary scrub, and an early-round store-rot
// schedule armed.  Rot is detected by the publish-time digests and
// repaired in place from the publisher's retained copy, so outputs stay
// bit-identical (store_integrity_identical) and every injected rot is
// caught (store detected == injected).  The acceptance row (2^16) wants
// overhead at noise level: the digests fold at stage time and the repair
// path only runs on faulted rounds.
void E06_StoreIntegrityOverhead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 17);
  const MatchingMpcOptions clean_opt = opts(17);

  MatchingMpcResult clean;
  double clean_ms = 0.0;
  {
    const WallTimer timer;
    clean = matching_mpc(g, clean_opt);
    clean_ms = timer.elapsed_ms();
  }

  // Store rot across the early rounds of both low machines; rounds with an
  // empty store are no-ops.
  fault::FaultPlan plan;
  for (std::size_t r = 1; r + 1 < clean.metrics.rounds && r <= 6; ++r) {
    plan.add_corrupt_store(0, r);
    plan.add_corrupt_store(1, r);
  }
  MatchingMpcOptions store_opt = clean_opt;
  store_opt.fault_plan = plan.empty() ? nullptr : &plan;
  store_opt.integrity = true;
  store_opt.scrub_interval = 4;
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, store_opt);
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }

  const bool identical = r.x == clean.x && r.cover == clean.cover &&
                         r.freeze_iteration == clean.freeze_iteration &&
                         r.metrics.rounds == clean.metrics.rounds &&
                         r.metrics.total_words == clean.metrics.total_words;
  emit_json_line("E06_StoreIntegrityOverhead/" + std::to_string(n), n,
                 g.num_edges(), r.metrics.rounds, wall_ms,
                 r.metrics.peak_storage_words);
  state.counters["n"] = static_cast<double>(n);
  state.counters["clean_ms"] = clean_ms;
  state.counters["store_integrity_ms"] = wall_ms;
  state.counters["overhead_pct"] =
      clean_ms > 0.0 ? 100.0 * (wall_ms - clean_ms) / clean_ms : 0.0;
  state.counters["store_integrity_identical"] = identical ? 1.0 : 0.0;
  state.counters["store_corruptions_injected"] =
      static_cast<double>(r.metrics.store_corruptions_injected);
  state.counters["store_corruptions_detected"] =
      static_cast<double>(r.metrics.store_corruptions_detected);
  state.counters["store_words_repaired"] =
      static_cast<double>(r.metrics.store_words_repaired);
  state.counters["scrub_passes"] =
      static_cast<double>(r.metrics.scrub_passes);
}
BENCHMARK(E06_StoreIntegrityOverhead)
    ->Arg(1 << 14)
    // 2^16 is the acceptance row: store digests + scrub at noise level.
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// On-disk checkpoint overhead: the same fault-free run persisting a
// durable generation every 4th safe point (see fault/durable.h). A durable
// generation is a fresh serialization of the registered providers plus the
// engine section, written through the two-slot ring with an atomic rename,
// so the acceptance row (2^16) wants overhead_pct under ~5% wall-clock —
// and the outputs bit-identical to the non-persistent run
// (durable_identical).
void E06_DiskCheckpointOverhead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 13);
  const MatchingMpcOptions clean_opt = opts(13);

  MatchingMpcResult clean;
  double clean_ms = 0.0;
  {
    const WallTimer timer;
    clean = matching_mpc(g, clean_opt);
    clean_ms = timer.elapsed_ms();
  }

  std::string dir;
  {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/mpcg_bench_ck.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    dir = buf.data();
  }
  MatchingMpcOptions durable_opt = clean_opt;
  durable_opt.durable.dir = dir + "/ck";
  durable_opt.durable.every = 4;
  MatchingMpcResult r;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    r = matching_mpc(g, durable_opt);
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(r.x.data());
  }
  // A second clean pass bounds run-to-run noise, as in the other overhead
  // rows.
  double off_ms = 0.0;
  {
    const WallTimer timer;
    const auto again = matching_mpc(g, clean_opt);
    off_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(again.x.data());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const bool identical = r.x == clean.x && r.cover == clean.cover &&
                         r.freeze_iteration == clean.freeze_iteration &&
                         r.metrics.rounds == clean.metrics.rounds &&
                         r.metrics.total_words == clean.metrics.total_words;
  emit_json_line("E06_DiskCheckpointOverhead/" + std::to_string(n), n,
                 g.num_edges(), r.metrics.rounds, wall_ms,
                 r.metrics.peak_storage_words);
  state.counters["n"] = static_cast<double>(n);
  state.counters["clean_ms"] = clean_ms;
  state.counters["durable_ms"] = wall_ms;
  state.counters["overhead_pct"] =
      clean_ms > 0.0 ? 100.0 * (wall_ms - clean_ms) / clean_ms : 0.0;
  state.counters["overhead_off_pct"] =
      clean_ms > 0.0 ? 100.0 * (off_ms - clean_ms) / clean_ms : 0.0;
  state.counters["durable_identical"] = identical ? 1.0 : 0.0;
  state.counters["disk_checkpoints_written"] =
      static_cast<double>(r.metrics.disk_checkpoints_written);
  state.counters["disk_checkpoint_words"] =
      static_cast<double>(r.metrics.disk_checkpoint_words);
  // A clean persistent run never loads or falls back.
  state.counters["resume_loads"] =
      static_cast<double>(r.metrics.resume_loads);
  state.counters["disk_fallbacks"] =
      static_cast<double>(r.metrics.disk_fallbacks);
}
BENCHMARK(E06_DiskCheckpointOverhead)
    ->Arg(1 << 14)
    // 2^16 is the acceptance row: durable persistence under 5% wall-clock.
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void register_all() {
  for (const char* family : family_names()) {
    benchmark::RegisterBenchmark(
        (std::string("E06_Approximation/") + family).c_str(),
        [family](benchmark::State& s) { E06_Approximation(s, family); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  // Frontier-decay workloads (see E06_FrontierDecay): 2^18 is the CI smoke
  // size, 2^20 the headline row next to the gnp 2^20 one.
  for (const char* family : {"rmat", "star", "power_law"}) {
    benchmark::RegisterBenchmark(
        (std::string("E06_FrontierDecay/") + family).c_str(),
        [family](benchmark::State& s) { E06_FrontierDecay(s, family); })
        ->Arg(1 << 18)
        ->Arg(1 << 20)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
