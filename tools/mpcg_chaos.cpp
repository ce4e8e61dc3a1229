// mpcg_chaos — randomized multi-fault soak harness for the data-integrity
// layer.
//
// Each storm draws a seeded FaultPlan::random_storm (crashes, drops,
// duplicates, delays, payload/store corruptions, checkpoint rot), runs one
// of the drivers — MIS, fractional matching, vertex cover (MPC model) or
// MIS (congested clique) — with checkpoint recovery, stream-checksum +
// durable-store integrity, audit mode, and the round-boundary scrub all
// armed, and cross-checks the result against a from-scratch fault-free
// solve:
//   * every observable output and every logical metric must be
//     bit-identical (the coupling contract);
//   * the solution must validate against the input graph from scratch
//     (maximal independent set / fractional matching / vertex cover);
//   * every injected corruption must have been detected, on the wire and
//     in the durable store (detected == injected for both).
//
// Usage:
//   mpcg_chaos [--storms 20] [--seed 1] [--n 4096] [--verbose]
//
// Kill/resume storm mode (process-level durability soak; see fault/durable.h):
//   mpcg_chaos --kill-storms 20 [--run-bin path/to/mpcg_run] [--n 20000]
//              [--kill-driver mis] [--kill-family gnp_sparse]
// Each kill storm forks a reference `mpcg_run` (no persistence), then a
// persistent run SIGKILLed at a seeded 10–90% of the reference wall time,
// then one `--resume` relaunch — whose stdout must be bit-identical to the
// reference after dropping the disk-metric lines. Drivers and graph
// families cycle unless pinned with --kill-driver / --kill-family.
//
// Exits 0 iff every storm passes; any mismatch prints a FAIL line plus one
// greppable DIVERGED line naming the (seed, driver, family) tuple, and
// exits 1 — suitable for CI (including ASan jobs) as-is.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mpcg.h"
#include "util/flags.h"

namespace {

using namespace mpcg;

struct StormStats {
  std::size_t faults = 0;
  std::size_t corruptions = 0;
  std::size_t retransmitted = 0;
  std::size_t replayed = 0;
  std::size_t store_corruptions = 0;
  std::size_t store_repaired = 0;
  std::size_t ckpt_fallbacks = 0;
  std::size_t scrubs = 0;
};

/// Scrub cadence armed in every faulty run: frequent enough that multi-round
/// storms cross several scrub boundaries, cheap enough for a soak.
constexpr std::size_t kScrubInterval = 3;

bool check(bool ok, const char* what, const std::string& label,
           std::size_t& failures) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), what);
    ++failures;
  }
  return ok;
}

// One storm against matching_mpc (algo == "matching") or the vertex-cover
// wrapper on top of it (algo == "vc").
void storm_matching(const Graph& g, std::uint64_t seed, bool want_cover,
                    const std::string& label, std::size_t& failures,
                    StormStats& stats) {
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = seed;
  const auto clean = matching_mpc(g, opt);

  const auto plan = fault::FaultPlan::random_storm(
      mix64(seed, 1, 0xc4a05), /*num_machines=*/2, clean.metrics.rounds, 8);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  faulty.scrub_interval = kScrubInterval;
  const auto stormy = matching_mpc(g, faulty);

  check(stormy.x == clean.x, "x diverged", label, failures);
  check(stormy.cover == clean.cover, "cover diverged", label, failures);
  check(stormy.freeze_iteration == clean.freeze_iteration,
        "freeze iterations diverged", label, failures);
  check(stormy.metrics.rounds == clean.metrics.rounds, "rounds diverged",
        label, failures);
  check(stormy.metrics.total_words == clean.metrics.total_words,
        "total_words diverged", label, failures);
  check(stormy.metrics.corruptions_detected ==
            stormy.metrics.corruptions_injected,
        "undetected corruption", label, failures);
  check(stormy.metrics.store_corruptions_detected ==
            stormy.metrics.store_corruptions_injected,
        "undetected store corruption", label, failures);
  check(is_fractional_matching(g, stormy.x), "x is not a fractional matching",
        label, failures);
  if (want_cover) {
    check(is_vertex_cover(g, stormy.cover), "cover does not cover", label,
          failures);
  }
  stats.faults += stormy.metrics.faults_injected;
  stats.corruptions += stormy.metrics.corruptions_injected;
  stats.retransmitted += stormy.metrics.words_retransmitted;
  stats.replayed += stormy.metrics.rounds_replayed;
  stats.store_corruptions += stormy.metrics.store_corruptions_injected;
  stats.store_repaired += stormy.metrics.store_words_repaired;
  stats.ckpt_fallbacks += stormy.metrics.checkpoint_fallbacks;
  stats.scrubs += stormy.metrics.scrub_passes;
}

void storm_mis(const Graph& g, std::uint64_t seed, const std::string& label,
               std::size_t& failures, StormStats& stats) {
  MisMpcOptions opt;
  opt.seed = seed;
  const auto clean = mis_mpc(g, opt);

  const auto plan = fault::FaultPlan::random_storm(
      mix64(seed, 2, 0xc4a05), /*num_machines=*/2, clean.metrics.rounds, 8);
  MisMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  faulty.scrub_interval = kScrubInterval;
  const auto stormy = mis_mpc(g, faulty);

  check(stormy.mis == clean.mis, "mis diverged", label, failures);
  check(stormy.rank_phases == clean.rank_phases, "rank_phases diverged",
        label, failures);
  check(stormy.metrics.rounds == clean.metrics.rounds, "rounds diverged",
        label, failures);
  check(stormy.metrics.total_words == clean.metrics.total_words,
        "total_words diverged", label, failures);
  check(stormy.metrics.corruptions_detected ==
            stormy.metrics.corruptions_injected,
        "undetected corruption", label, failures);
  check(stormy.metrics.store_corruptions_detected ==
            stormy.metrics.store_corruptions_injected,
        "undetected store corruption", label, failures);
  check(is_maximal_independent_set(g, stormy.mis), "mis is not maximal",
        label, failures);
  stats.faults += stormy.metrics.faults_injected;
  stats.corruptions += stormy.metrics.corruptions_injected;
  stats.retransmitted += stormy.metrics.words_retransmitted;
  stats.replayed += stormy.metrics.rounds_replayed;
  stats.store_corruptions += stormy.metrics.store_corruptions_injected;
  stats.store_repaired += stormy.metrics.store_words_repaired;
  stats.ckpt_fallbacks += stormy.metrics.checkpoint_fallbacks;
  stats.scrubs += stormy.metrics.scrub_passes;
}

void storm_mis_cclique(const Graph& g, std::uint64_t seed,
                       const std::string& label, std::size_t& failures,
                       StormStats& stats) {
  MisCcliqueOptions opt;
  opt.seed = seed;
  const auto clean = mis_cclique(g, opt);

  const auto plan = fault::FaultPlan::random_storm(
      mix64(seed, 3, 0xc4a05), /*num_machines=*/4, clean.metrics.rounds, 8);
  MisCcliqueOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  faulty.scrub_interval = kScrubInterval;
  const auto stormy = mis_cclique(g, faulty);

  check(stormy.mis == clean.mis, "mis diverged", label, failures);
  check(stormy.rank_phases == clean.rank_phases, "rank_phases diverged",
        label, failures);
  check(stormy.metrics.rounds == clean.metrics.rounds, "rounds diverged",
        label, failures);
  check(stormy.metrics.total_words == clean.metrics.total_words,
        "total_words diverged", label, failures);
  check(stormy.metrics.lenzen_batches == clean.metrics.lenzen_batches,
        "lenzen_batches diverged", label, failures);
  check(stormy.metrics.corruptions_detected ==
            stormy.metrics.corruptions_injected,
        "undetected corruption", label, failures);
  check(stormy.metrics.store_corruptions_detected ==
            stormy.metrics.store_corruptions_injected,
        "undetected store corruption", label, failures);
  check(is_maximal_independent_set(g, stormy.mis), "mis is not maximal",
        label, failures);
  stats.faults += stormy.metrics.faults_injected;
  stats.corruptions += stormy.metrics.corruptions_injected;
  stats.retransmitted += stormy.metrics.words_retransmitted;
  stats.replayed += stormy.metrics.rounds_replayed;
  stats.store_corruptions += stormy.metrics.store_corruptions_injected;
  stats.store_repaired += stormy.metrics.store_words_repaired;
  stats.ckpt_fallbacks += stormy.metrics.checkpoint_fallbacks;
  stats.scrubs += stormy.metrics.scrub_passes;
}

// ---------------------------------------------------------------------------
// Kill/resume storm mode: end-to-end durability soak over real processes.
// ---------------------------------------------------------------------------

struct RunResult {
  std::string out;        // captured stdout
  int exit_code = -1;     // valid iff !signaled
  bool signaled = false;  // terminated by a signal (the SIGKILL landed)
  double wall_ms = 0.0;
};

/// Fork/exec `bin argv...`, capture its stdout through a pipe, and (when
/// `kill_after_ms >= 0`) SIGKILL it once that much wall time has elapsed.
/// stderr is inherited so child diagnostics surface in the soak log.
RunResult run_child(const std::string& bin,
                    const std::vector<std::string>& args,
                    double kill_after_ms) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("mpcg_chaos: pipe() failed");
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("mpcg_chaos: fork() failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> cargv;
    cargv.push_back(const_cast<char*>(bin.c_str()));
    for (const auto& a : args) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    execv(bin.c_str(), cargv.data());
    std::fprintf(stderr, "mpcg_chaos: execv %s: %s\n", bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(fds[1]);

  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  RunResult r;
  bool killed = false;
  char buf[4096];
  for (;;) {
    int timeout = -1;
    if (kill_after_ms >= 0.0 && !killed) {
      const double left = kill_after_ms - elapsed_ms();
      if (left <= 0.0) {
        kill(pid, SIGKILL);
        killed = true;
      } else {
        timeout = static_cast<int>(left) + 1;
      }
    }
    struct pollfd p = {fds[0], POLLIN, 0};
    const int pr = poll(&p, 1, timeout);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // timeout expired: loop re-checks the kill clock
    const ssize_t k = read(fds[0], buf, sizeof buf);
    if (k <= 0) break;  // EOF: the child exited (or was killed)
    r.out.append(buf, static_cast<std::size_t>(k));
  }
  r.wall_ms = elapsed_ms();
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    r.signaled = true;
  } else if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  }
  return r;
}

/// Drop the disk-metric lines persistence adds to mpcg_run's report, so a
/// persistent/resumed run compares bit-identically against a plain one.
std::string strip_disk_metrics(const std::string& out) {
  static constexpr const char* kKeys[] = {
      "disk_checkpoints_written", "disk_checkpoint_words", "resume_loads",
      "disk_fallbacks", "faults_skipped_on_resume"};
  std::string kept;
  kept.reserve(out.size());
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) nl = out.size() - 1;
    const std::string_view line(out.data() + pos, nl + 1 - pos);
    bool drop = false;
    for (const char* key : kKeys) {
      const std::size_t len = std::strlen(key);
      if (line.size() > len && line.substr(0, len) == key &&
          line[len] == '\t') {
        drop = true;
        break;
      }
    }
    if (!drop) kept.append(line);
    pos = nl + 1;
  }
  return kept;
}

std::string make_temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && *base != '\0' ? base
                                                                  : "/tmp") +
                     "/mpcg_kill.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mpcg_chaos: mkdtemp failed");
  }
  return std::string(buf.data());
}

/// One kill storm: reference run, SIGKILLed persistent run, --resume
/// relaunch, bit-identity check. Returns true iff the storm is clean.
bool kill_storm(const std::string& run_bin, const char* driver,
                const char* family, std::size_t n, std::uint64_t trial_seed,
                const std::string& label, bool verbose,
                std::size_t& kills_landed, std::size_t& failures) {
  // Seeds reach mpcg_run through a signed flag parser — keep them positive.
  const std::uint64_t run_seed = (trial_seed & 0x7fffffffULL) | 1ULL;
  std::vector<std::string> base = {
      "--algo", driver,
      "--family", family,
      "--n", std::to_string(n),
      "--seed", std::to_string(run_seed),
      "--check", "true"};

  const RunResult ref = run_child(run_bin, base, /*kill_after_ms=*/-1.0);
  if (ref.signaled || ref.exit_code != 0) {
    check(false, "reference run failed", label, failures);
    return false;
  }

  const std::string dir = make_temp_dir();
  std::vector<std::string> durable = base;
  durable.insert(durable.end(),
                 {"--checkpoint-dir", dir, "--checkpoint-every", "1"});
  // Seeded kill point at 10–90% of the reference wall time; the exact
  // landing round is scheduler noise by design — that is the property
  // under test (any kill point must resume bit-identically).
  const double frac =
      0.10 + 0.80 * static_cast<double>(mix64(trial_seed, 0x6b11, 1) % 10000) /
                 10000.0;
  const RunResult victim = run_child(run_bin, durable, frac * ref.wall_ms);
  if (victim.signaled) ++kills_landed;
  bool ok = true;
  if (!victim.signaled && victim.exit_code != 0) {
    ok = check(false, "persistent run failed before the kill landed", label,
               failures);
  }

  std::vector<std::string> resume = base;
  resume.insert(resume.end(),
                {"--checkpoint-dir", dir, "--resume", "true"});
  const RunResult resumed = run_child(run_bin, resume, /*kill_after_ms=*/-1.0);
  if (resumed.signaled || resumed.exit_code != 0) {
    ok = check(false, "resume run failed", label, failures);
  } else {
    ok &= check(strip_disk_metrics(resumed.out) ==
                    strip_disk_metrics(ref.out),
                "resumed output diverged from the reference run", label,
                failures);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ok && verbose) {
    std::printf("ok   %s (%s, kill at %.0f%% of %.0f ms)\n", label.c_str(),
                victim.signaled ? "killed mid-run" : "finished before kill",
                100.0 * frac, ref.wall_ms);
  }
  return ok;
}

int run_kill_storms(const std::string& run_bin, std::size_t storms,
                    std::uint64_t seed, std::size_t n,
                    const std::string& only_driver,
                    const std::string& only_family, bool verbose) {
  static constexpr const char* kDrivers[] = {"mis", "matching", "vc",
                                             "mis_cc"};
  static constexpr const char* kFamilies[] = {"gnp_sparse", "rmat", "star"};
  std::size_t failures = 0;
  std::size_t clean = 0;
  std::size_t kills_landed = 0;
  for (std::size_t s = 0; s < storms; ++s) {
    const char* driver =
        only_driver.empty() ? kDrivers[s % 4] : only_driver.c_str();
    const char* family =
        only_family.empty() ? kFamilies[(s / 4) % 3] : only_family.c_str();
    const std::uint64_t trial_seed = mix64(seed, s, 0x6b11);
    const std::string label = "kill-storm " + std::to_string(s) + " (" +
                              driver + ", " + family + ")";
    const std::size_t before = failures;
    try {
      kill_storm(run_bin, driver, family, n, trial_seed, label, verbose,
                 kills_landed, failures);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), e.what());
      ++failures;
    }
    if (failures == before) {
      ++clean;
    } else {
      std::fprintf(stderr,
                   "DIVERGED seed=%llu storm=%zu driver=%s family=%s n=%zu "
                   "storm_seed=%llu mode=kill\n",
                   static_cast<unsigned long long>(seed), s, driver, family,
                   n, static_cast<unsigned long long>(trial_seed));
    }
  }
  std::printf("%zu/%zu kill storms clean | kills landed mid-run %zu\n", clean,
              storms, kills_landed);
  if (failures != 0) {
    std::fprintf(stderr, "mpcg_chaos: %zu kill-storm check(s) failed\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mpcg::Flags flags(argc, argv);
    const std::size_t storms = flags.get_count("storms", 20);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::size_t n = flags.get_count("n", 4096);
    const bool verbose = flags.get_bool("verbose", false);
    const std::size_t kill_storms = flags.get_count("kill-storms", 0);
    const std::string default_run_bin =
        (std::filesystem::path(argv[0]).parent_path() / "mpcg_run").string();
    const std::string run_bin = flags.get_string("run-bin", default_run_bin);
    const std::string kill_driver = flags.get_string("kill-driver", "");
    const std::string kill_family = flags.get_string("kill-family", "");
    if (const auto unused = flags.unused(); !unused.empty()) {
      std::fprintf(stderr, "unknown flag --%s\n", unused.front().c_str());
      return 2;
    }
    if (kill_storms != 0) {
      return run_kill_storms(run_bin, kill_storms, seed, n, kill_driver,
                             kill_family, verbose);
    }

    static constexpr const char* kDrivers[] = {"mis", "matching", "vc",
                                               "mis_cc"};
    static constexpr const char* kFamilies[] = {"gnp_sparse", "gnp_dense",
                                                "rmat", "star"};
    std::size_t failures = 0;
    std::size_t clean_storms = 0;
    StormStats stats;
    for (std::size_t s = 0; s < storms; ++s) {
      const char* driver = kDrivers[s % 4];
      const char* family = kFamilies[(s / 4) % 4];
      const std::uint64_t storm_seed = mpcg::mix64(seed, s, 0xc4a05);
      const std::string label = "storm " + std::to_string(s) + " (" + driver +
                                ", " + family + ")";
      const mpcg::Graph g = mpcg::graph_family(family, n, storm_seed);
      const std::size_t before = failures;
      try {
        if (std::string(driver) == "mis") {
          storm_mis(g, storm_seed, label, failures, stats);
        } else if (std::string(driver) == "matching") {
          storm_matching(g, storm_seed, /*want_cover=*/false, label, failures,
                         stats);
        } else if (std::string(driver) == "vc") {
          storm_matching(g, storm_seed, /*want_cover=*/true, label, failures,
                         stats);
        } else {
          storm_mis_cclique(g, storm_seed, label, failures, stats);
        }
      } catch (const std::exception& e) {
        // A throwing storm (budget blown, unrepaired rot, audit breach) is
        // a failure of that storm, not of the whole soak — record it and
        // keep going so one line names every bad tuple.
        std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), e.what());
        ++failures;
      }
      if (failures == before) {
        ++clean_storms;
        if (verbose) std::printf("ok   %s\n", label.c_str());
      } else {
        // One greppable line per failing storm: everything needed to
        // reproduce it (`--storms 1` won't land on the same tuple, so the
        // full coordinates matter).
        std::fprintf(stderr,
                     "DIVERGED seed=%llu storm=%zu driver=%s family=%s "
                     "n=%zu storm_seed=%llu\n",
                     static_cast<unsigned long long>(seed), s, driver, family,
                     n, static_cast<unsigned long long>(storm_seed));
      }
    }

    std::printf(
        "%zu/%zu storms clean | faults %zu corruptions %zu "
        "retransmitted %zu replays %zu | store corruptions %zu "
        "repaired %zu ckpt fallbacks %zu scrubs %zu\n",
        clean_storms, storms, stats.faults, stats.corruptions,
        stats.retransmitted, stats.replayed, stats.store_corruptions,
        stats.store_repaired, stats.ckpt_fallbacks, stats.scrubs);
    if (failures != 0) {
      std::fprintf(stderr, "mpcg_chaos: %zu check(s) failed\n", failures);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcg_chaos: %s\n", e.what());
    return 1;
  }
}
