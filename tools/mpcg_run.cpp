// mpcg_run — command-line driver for the library.
//
// Runs any of the paper's algorithms on a generated family or a graph
// file, printing a one-object summary (tab-separated key value lines) that
// scripts can consume.
//
// Usage:
//   mpcg_run --algo mis|mis_cc|matching|vc|one_plus_eps|weighted|baselines
//                   |sort|route
//            [--family gnp_dense --n 4096 | --input graph.txt]
//            [--seed 1] [--eps 0.1] [--check]
//            [--faults "crash:<machine>@<round>,corrupt:1@4,
//                       corrupt_store:0@5,corrupt_ckpt:2@6,..."]
//            [--words W] [--reprovision] [--integrity] [--audit]
//            [--scrub-interval K]
//
// --faults attaches a deterministic fault schedule to the engine (mis,
// matching, vc, mis_cc, sort, route); recovery replays the faulted rounds
// from the round checkpoint, so outputs are bit-identical to the
// fault-free run and the overhead shows up in the fault metrics lines.
// --reprovision retries a run that breaches capacity (or exhausts its
// crash budget) with doubled per-machine memory, up to a bounded number of
// attempts. --integrity arms the per-sender stream checksums and the
// durable-store digests (required for corrupt/corrupt_store faults to be
// detected and repaired); --audit checks conservation invariants every
// round. --scrub-interval K runs a proactive verification sweep over the
// streams, the payload store, and the checkpoint generations every K
// rounds (0 = never; requires --integrity).
//
// `sort` runs the distributed sample sort on seeded words; `route` runs
// Lenzen routing on the congested clique plus a ring exchange — both are
// primitive-level fault surfaces with from-scratch --check validation.
//
// --check validates the output and exits 3 on an invalid solution.
//
// Examples:
//   mpcg_run --algo mis --family power_law --n 20000 --seed 7
//   mpcg_run --algo matching --input my_graph.txt --eps 0.05 --check
//   mpcg_run --algo matching --n 4096 --faults crash:0@3,crash:2@7 --check
//   mpcg_run --algo sort --n 4096 --faults corrupt:1@2 --integrity --check
//
// On-disk durability (mis, matching, vc, mis_cc):
//   --checkpoint-dir D       persist a verified two-slot generation ring
//                            under D at driver safe points
//   --checkpoint-every K     persist every K-th safe point (default 1)
//   --checkpoint-generations N  in-memory checkpoint ring depth (>= 1)
//   --resume                 resume from the newest verified generation in
//                            D (scope mismatch or empty D = fresh start)
//   --stop-after-safe-points N  deterministic stop hook: behave as if
//                            SIGTERM arrived at the N-th safe point (CI
//                            smokes use this to pin the interrupt point)
// With --checkpoint-dir set, SIGTERM/SIGINT finish the in-flight round,
// flush one final generation, and exit with status 75 ("resumable");
// relaunching the identical command line with --resume continues to
// bit-identical outputs. kill -9 survives too, losing at most the work
// since the last persisted safe point.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <tuple>

#include "mpcg.h"
#include "util/flags.h"

namespace {

using namespace mpcg;

/// Set by the SIGTERM/SIGINT handler (installed only when --checkpoint-dir
/// is given) and polled by the engines at safe points.
std::atomic<bool> g_stop{false};

}  // namespace

extern "C" void mpcg_run_handle_stop(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

namespace {

void print_kv(const char* key, double value) {
  std::printf("%s\t%.6g\n", key, value);
}
void print_kv(const char* key, std::size_t value) {
  std::printf("%s\t%zu\n", key, value);
}

void print_fault_metrics(const fault::FaultMetrics& m) {
  print_kv("faults_injected", m.faults_injected);
  print_kv("rounds_replayed", m.rounds_replayed);
  print_kv("words_resent", m.words_resent);
  print_kv("checkpoint_bytes", m.checkpoint_bytes);
  print_kv("corruptions_injected", m.corruptions_injected);
  print_kv("corruptions_detected", m.corruptions_detected);
  print_kv("words_retransmitted", m.words_retransmitted);
  print_kv("store_corruptions_injected", m.store_corruptions_injected);
  print_kv("store_corruptions_detected", m.store_corruptions_detected);
  print_kv("store_words_repaired", m.store_words_repaired);
  print_kv("checkpoint_fallbacks", m.checkpoint_fallbacks);
  print_kv("scrub_passes", m.scrub_passes);
}

void print_disk_metrics(const fault::FaultMetrics& m) {
  print_kv("disk_checkpoints_written", m.disk_checkpoints_written);
  print_kv("disk_checkpoint_words", m.disk_checkpoint_words);
  print_kv("resume_loads", m.resume_loads);
  print_kv("disk_fallbacks", m.disk_fallbacks);
  print_kv("faults_skipped_on_resume", m.faults_skipped_on_resume);
}

void print_reprovision_failures(
    const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "reprovision: %s\n", f.c_str());
  }
}

/// Auto-sizing base the drivers use for words_per_machine (8n), so the
/// reprovision scale has a concrete number to multiply.
std::size_t base_words(std::size_t requested, std::size_t n) {
  return requested != 0 ? requested : 8 * std::max<std::size_t>(n, 64);
}

int run(const Flags& flags) {
  // Every flag is read and checked before the graph is built, so a bad
  // value fails fast instead of after a long generation.
  const std::string algo = flags.get_string("algo", "mis");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double eps = flags.get_double("eps", 0.1);
  const bool check = flags.get_bool("check", false);
  // --family/--n are read only without --input, so they stay unknown
  // flags next to it.
  const bool from_file = flags.has("input");
  const std::string input = from_file ? flags.get_string("input", "") : "";
  const std::string family =
      from_file ? "" : flags.get_string("family", "gnp_dense");
  const std::size_t n = from_file ? 0 : flags.get_count("n", 4096);

  const std::string faults_spec = flags.get_string("faults", "");
  const bool reprovision = flags.get_bool("reprovision", false);
  const bool integrity = flags.get_bool("integrity", false);
  const bool audit = flags.get_bool("audit", false);
  const std::size_t scrub_interval = flags.get_count("scrub-interval", 0);
  const std::size_t words = flags.get_count("words", 0);

  const std::string checkpoint_dir = flags.get_string("checkpoint-dir", "");
  const std::size_t checkpoint_every = flags.get_count("checkpoint-every", 1);
  const std::size_t checkpoint_generations =
      flags.get_count("checkpoint-generations", 0);
  const bool resume = flags.get_bool("resume", false);
  const std::size_t stop_after_safe_points =
      flags.get_count("stop-after-safe-points", 0);

  const auto unused = flags.unused();
  if (!unused.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unused.front().c_str());
    return 2;
  }

  const bool durable = !checkpoint_dir.empty();
  if (checkpoint_every < 1) {
    std::fprintf(stderr, "--checkpoint-every must be >= 1 (got %zu)\n",
                 checkpoint_every);
    return 2;
  }
  if (flags.has("checkpoint-generations") && checkpoint_generations < 1) {
    std::fprintf(stderr, "--checkpoint-generations must be >= 1 (got %zu)\n",
                 checkpoint_generations);
    return 2;
  }
  if (flags.has("stop-after-safe-points") && stop_after_safe_points < 1) {
    std::fprintf(stderr,
                 "--stop-after-safe-points must be >= 1 (got %zu)\n",
                 stop_after_safe_points);
    return 2;
  }
  if (!durable && (resume || flags.has("checkpoint-every") ||
                   flags.has("checkpoint-generations") ||
                   flags.has("stop-after-safe-points"))) {
    std::fprintf(stderr,
                 "--resume/--checkpoint-every/--checkpoint-generations/"
                 "--stop-after-safe-points require --checkpoint-dir\n");
    return 2;
  }
  if (durable && algo != "mis" && algo != "matching" && algo != "vc" &&
      algo != "mis_cc") {
    std::fprintf(stderr, "--checkpoint-dir is only supported with --algo "
                         "mis|matching|vc|mis_cc\n");
    return 2;
  }

  fault::FaultPlan plan;
  if (!faults_spec.empty()) plan = fault::FaultPlan::parse(faults_spec);
  const fault::FaultPlan* plan_ptr = plan.empty() ? nullptr : &plan;
  if (plan_ptr != nullptr && algo != "mis" && algo != "matching" &&
      algo != "vc" && algo != "mis_cc" && algo != "sort" &&
      algo != "route") {
    std::fprintf(stderr, "--faults is only supported with --algo "
                         "mis|matching|vc|mis_cc|sort|route\n");
    return 2;
  }

  Graph g;
  std::vector<double> weights;
  if (from_file) {
    auto loaded = read_edge_list_file(input);
    g = std::move(loaded.graph);
    if (loaded.weights) weights = std::move(*loaded.weights);
  } else {
    g = graph_family(family, n, seed);
  }
  if (weights.empty() && algo == "weighted") {
    Rng rng(seed);
    weights = exponential_weights(g, 1.0, rng);
  }

  fault::DurableOptions durable_opt;
  if (durable) {
    durable_opt.dir = checkpoint_dir;
    durable_opt.every = checkpoint_every;
    durable_opt.generations = checkpoint_generations;
    durable_opt.resume = resume;
    durable_opt.stop_flag = &g_stop;
    durable_opt.stop_after_safe_points = stop_after_safe_points;
    std::signal(SIGTERM, mpcg_run_handle_stop);
    std::signal(SIGINT, mpcg_run_handle_stop);
  }

  print_kv("n", g.num_vertices());
  print_kv("m", g.num_edges());
  print_kv("max_degree", g.max_degree());

  if (algo == "mis") {
    MisMpcOptions opt;
    opt.seed = seed;
    opt.words_per_machine = words;
    opt.fault_plan = plan_ptr;
    opt.integrity = integrity;
    opt.audit = audit;
    opt.scrub_interval = scrub_interval;
    opt.durable = durable_opt;
    MisMpcResult r;
    if (reprovision) {
      auto outcome = fault::run_with_reprovision(
          fault::ReprovisionPolicy{},
          [&](std::size_t scale) {
            MisMpcOptions o = opt;
            o.words_per_machine =
                base_words(o.words_per_machine, g.num_vertices()) * scale;
            return mis_mpc(g, o);
          },
          [](const MisMpcResult& res) {
            return res.metrics.violations == 0;
          });
      print_reprovision_failures(outcome.failures);
      if (!outcome.ok()) return 1;
      print_kv("reprovision_attempts", outcome.attempts);
      print_kv("reprovision_scale", outcome.scale);
      r = std::move(*outcome.result);
    } else {
      r = mis_mpc(g, opt);
    }
    print_kv("mis_size", r.mis.size());
    print_kv("rank_phases", r.rank_phases);
    print_kv("engine_rounds", r.metrics.rounds);
    print_kv("peak_words", r.metrics.peak_storage_words);
    if (plan_ptr != nullptr) print_fault_metrics(r.metrics);
    if (durable) print_disk_metrics(r.metrics);
    if (check) {
      const bool valid = is_maximal_independent_set(g, r.mis);
      print_kv("valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "mis_cc") {
    MisCcliqueOptions opt;
    opt.seed = seed;
    opt.fault_plan = plan_ptr;
    opt.integrity = integrity;
    opt.audit = audit;
    opt.scrub_interval = scrub_interval;
    opt.durable = durable_opt;
    const auto r = mis_cclique(g, opt);
    print_kv("mis_size", r.mis.size());
    print_kv("clique_rounds", r.metrics.rounds);
    print_kv("lenzen_batches", r.metrics.lenzen_batches);
    if (plan_ptr != nullptr) print_fault_metrics(r.metrics);
    if (durable) print_disk_metrics(r.metrics);
    if (check) {
      const bool valid = is_maximal_independent_set(g, r.mis);
      print_kv("valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "sort") {
    // Primitive-level fault surface: distributed sample sort of seeded
    // words, cross-checked against a from-scratch std::sort.
    const std::size_t n_words = std::max<std::size_t>(g.num_vertices(), 64);
    const std::size_t machines = std::clamp<std::size_t>(n_words / 64, 2, 64);
    mpc::Config cfg{machines, base_words(words, n_words), true};
    cfg.integrity = integrity;
    cfg.audit = audit;
    cfg.scrub_interval = scrub_interval;
    mpc::Engine engine(cfg);
    fault::CheckpointRegistry registry;
    if (plan_ptr != nullptr) engine.set_fault_plan(plan_ptr, &registry);
    std::vector<std::vector<mpc::Word>> input(machines);
    for (std::size_t i = 0; i < n_words; ++i) {
      input[i % machines].push_back(mix64(seed, i, 0x5047ULL));
    }
    const auto slices = mpc::distributed_sort(engine, input);
    print_kv("sorted_words", n_words);
    print_kv("machines", machines);
    print_kv("engine_rounds", engine.metrics().rounds);
    if (plan_ptr != nullptr) print_fault_metrics(engine.metrics());
    if (check) {
      std::vector<mpc::Word> got;
      for (const auto& s : slices) got.insert(got.end(), s.begin(), s.end());
      std::vector<mpc::Word> want;
      for (const auto& in : input) want.insert(want.end(), in.begin(),
                                               in.end());
      std::sort(want.begin(), want.end());
      const bool valid = got == want;
      print_kv("valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "route") {
    // Lenzen routing plus a ring exchange on the congested clique; the
    // delivered multiset is checked against the staged one from scratch.
    const std::size_t players = std::clamp<std::size_t>(g.num_vertices(),
                                                        4, 4096);
    cclique::Engine engine(players, /*strict=*/true, integrity, audit,
                           scrub_interval);
    fault::CheckpointRegistry route_registry;
    if (plan_ptr != nullptr) engine.set_fault_plan(plan_ptr, &route_registry);
    for (std::size_t p = 0; p < players; ++p) {
      engine.send(static_cast<cclique::PlayerId>(p),
                  static_cast<cclique::PlayerId>((p + 1) % players),
                  mix64(seed, p, 0x72ULL));
    }
    engine.exchange();
    cclique::RouteStream stream;
    std::vector<cclique::Message> staged;
    for (std::size_t p = 0; p < players; ++p) {
      const auto to = static_cast<cclique::PlayerId>(
          mix64(seed, p, 0x746fULL) % players);
      const std::size_t burst = 1 + mix64(seed, p, 0x6cULL) % 4;
      for (std::size_t i = 0; i < burst; ++i) {
        const cclique::Word w = mix64(seed, p * 8 + i, 0x77ULL);
        stream.append(static_cast<cclique::PlayerId>(p), to, w);
        staged.push_back({static_cast<cclique::PlayerId>(p), to, w});
      }
    }
    const auto& delivered = engine.lenzen_route_view(stream);
    print_kv("players", players);
    print_kv("routed_words", stream.size());
    print_kv("clique_rounds", engine.metrics().rounds);
    print_kv("lenzen_batches", engine.metrics().lenzen_batches);
    if (plan_ptr != nullptr) print_fault_metrics(engine.metrics());
    if (check) {
      std::vector<cclique::Message> got;
      for (std::size_t p = 0; p < delivered.size(); ++p) {
        for (const cclique::RouteSegment& seg : delivered[p].segments()) {
          for (std::uint32_t i = 0; i < seg.count; ++i) {
            got.push_back({seg.from, static_cast<cclique::PlayerId>(p),
                           seg.words[i]});
          }
        }
      }
      const auto key = [](const cclique::Message& m) {
        return std::make_tuple(m.from, m.to, m.word);
      };
      const auto less = [&key](const cclique::Message& a,
                               const cclique::Message& b) {
        return key(a) < key(b);
      };
      std::sort(got.begin(), got.end(), less);
      std::sort(staged.begin(), staged.end(), less);
      const bool valid =
          got.size() == staged.size() &&
          std::equal(got.begin(), got.end(), staged.begin(),
                     [&key](const cclique::Message& a,
                            const cclique::Message& b) {
                       return key(a) == key(b);
                     });
      print_kv("valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "matching" || algo == "vc") {
    IntegralMatchingOptions opt;
    opt.eps = eps;
    opt.seed = seed;
    opt.simulation.words_per_machine = words;
    opt.simulation.fault_plan = plan_ptr;
    opt.simulation.integrity = integrity;
    opt.simulation.audit = audit;
    opt.simulation.scrub_interval = scrub_interval;
    opt.durable = durable_opt;
    IntegralMatchingResult r;
    if (reprovision) {
      auto outcome = fault::run_with_reprovision(
          fault::ReprovisionPolicy{},
          [&](std::size_t scale) {
            IntegralMatchingOptions o = opt;
            o.simulation.words_per_machine =
                base_words(o.simulation.words_per_machine,
                           g.num_vertices()) * scale;
            return integral_matching(g, o);
          },
          [](const IntegralMatchingResult& res) {
            return res.first_run_metrics.violations == 0;
          });
      print_reprovision_failures(outcome.failures);
      if (!outcome.ok()) return 1;
      print_kv("reprovision_attempts", outcome.attempts);
      print_kv("reprovision_scale", outcome.scale);
      r = std::move(*outcome.result);
    } else {
      r = integral_matching(g, opt);
    }
    print_kv("matching_size", r.matching.size());
    print_kv("cover_size", r.cover.size());
    print_kv("total_rounds", r.total_rounds);
    if (plan_ptr != nullptr) print_fault_metrics(r.first_run_metrics);
    if (durable) print_disk_metrics(r.first_run_metrics);
    if (check) {
      const bool matching_valid = is_matching(g, r.matching);
      const bool cover_valid = is_vertex_cover(g, r.cover);
      print_kv("matching_valid", static_cast<std::size_t>(matching_valid));
      print_kv("cover_valid", static_cast<std::size_t>(cover_valid));
      if (!matching_valid || !cover_valid) return 3;
    }
    return 0;
  }
  if (algo == "one_plus_eps") {
    OnePlusEpsOptions opt;
    opt.eps = eps;
    opt.seed = seed;
    const auto r = one_plus_eps_matching(g, opt);
    print_kv("matching_size", r.matching.size());
    print_kv("augmenting_passes", r.augmenting_passes);
    print_kv("total_rounds", r.total_rounds);
    if (check) {
      const bool valid = is_matching(g, r.matching);
      print_kv("matching_valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "weighted") {
    WeightedMatchingOptions opt;
    opt.eps = eps;
    opt.seed = seed;
    const auto r = weighted_matching(g, weights, opt);
    print_kv("matching_size", r.matching.size());
    print_kv("weight", r.weight);
    print_kv("classes", r.num_classes);
    print_kv("rounds", r.total_rounds);
    if (check) {
      const bool valid = is_matching(g, r.matching);
      print_kv("matching_valid", static_cast<std::size_t>(valid));
      if (!valid) return 3;
    }
    return 0;
  }
  if (algo == "baselines") {
    const auto luby = luby_mis(g, seed);
    print_kv("luby_mis_size", luby.mis.size());
    print_kv("luby_rounds", luby.rounds);
    const auto ii = israeli_itai_matching(g, seed);
    print_kv("israeli_itai_size", ii.matching.size());
    print_kv("israeli_itai_rounds", ii.rounds);
    const auto lmsv =
        lmsv_maximal_matching(g, 8 * g.num_vertices(), seed);
    print_kv("lmsv_size", lmsv.matching.size());
    print_kv("lmsv_rounds", lmsv.rounds);
    return 0;
  }
  std::fprintf(stderr,
               "unknown --algo '%s' (want mis|mis_cc|matching|vc|"
               "one_plus_eps|weighted|baselines|sort|route)\n",
               algo.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(mpcg::Flags(argc, argv));
  } catch (const mpcg::fault::ResumableInterrupt& ex) {
    // Graceful stop at a safe point with a flushed final generation:
    // distinct "resumable" status (EX_TEMPFAIL) so supervisors know a
    // relaunch with --resume continues the run.
    std::fprintf(stderr, "resumable: %s\n", ex.what());
    return 75;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
