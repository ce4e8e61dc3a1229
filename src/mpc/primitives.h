// Collective communication primitives for the MPC engine.
//
// These are the "standard techniques" ([GSZ11]) the paper invokes: each
// collective is built from genuine exchange() rounds, so the engine's round
// counter and capacity checks see exactly what a real cluster would.
#ifndef MPCG_MPC_PRIMITIVES_H
#define MPCG_MPC_PRIMITIVES_H

#include <cstdint>
#include <span>
#include <vector>

#include "mpc/engine.h"

namespace mpcg::mpc {

/// One-to-all broadcast of `payload` from machine `root`.
///
/// Runs a relay tree whose fan-out is what the send budget allows
/// (max(1, S / |payload|) targets per relay per round), so a payload close
/// to S costs about log_f(m) rounds while a small payload costs one round.
/// Rides the engine's shared-payload plane: the payload is stored once per
/// relay round and delivered as descriptors, so simulator work is
/// O(|payload| * rounds + m) instead of O(|payload| * m) — the charged
/// words are unchanged. Returns a zero-copy view of the payload as
/// received (identical on every machine — the engine verified it could be
/// delivered everywhere). The span aliases engine-owned storage and is
/// valid until the next exchange() or clear_inboxes() — except on
/// single-machine clusters, where no exchange happens and the input span
/// itself is returned (valid as long as the caller's payload). Callers
/// that must hold the words across rounds copy them out. Throws
/// CapacityError if |payload| > S.
std::span<const Word> broadcast_view(Engine& engine, std::size_t root,
                                     std::span<const Word> payload);

/// All-to-one gather: machine i contributes `parts[i]`; returns the
/// concatenation (in machine order) as received by `root`. One round.
/// The gathered size is charged to root's storage. Parts travel as shared
/// segments (one stored copy each); the returned concatenation is the only
/// materialization.
std::vector<Word> gather_to(Engine& engine, std::size_t root,
                            const std::vector<std::vector<Word>>& parts);

/// All-to-all personalized exchange: `out[i][j]` are the words machine i
/// sends to machine j. Returns per-machine inboxes (concatenated in sender
/// order). One round.
std::vector<std::vector<Word>> all_to_all(
    Engine& engine, const std::vector<std::vector<std::vector<Word>>>& out);

/// Computes the sum of one value per machine at every machine
/// (all-reduce). Two rounds: gather 1 word per machine at machine 0, then
/// broadcast the total.
std::uint64_t all_reduce_sum(Engine& engine,
                             const std::vector<Word>& per_machine_value);

/// All-reduce maximum of one value per machine. Two rounds.
std::uint64_t all_reduce_max(Engine& engine,
                             const std::vector<Word>& per_machine_value);

}  // namespace mpcg::mpc

#endif  // MPCG_MPC_PRIMITIVES_H
