#include "mpc/primitives.h"

#include <algorithm>

namespace mpcg::mpc {

std::span<const Word> broadcast_view(Engine& engine, std::size_t root,
                                     std::span<const Word> payload) {
  const std::size_t m = engine.num_machines();
  if (payload.size() > engine.capacity() && engine.strict()) {
    // Non-strict mode proceeds; the per-round exchange checks tally the
    // violations so under-provisioning is observable, not fatal.
    throw CapacityError("machine " + std::to_string(root) +
                        " broadcast payload exceeds machine memory in round " +
                        std::to_string(engine.metrics().rounds) +
                        ": requested " + std::to_string(payload.size()) +
                        ", available " + std::to_string(engine.capacity()));
  }
  if (m == 1) return payload;

  // Relay tree over machine ids reordered so the root is position 0.
  // Position p holds the payload once informed; each informed position
  // relays to `fanout` uninformed positions per round.
  const std::size_t fanout = std::max<std::size_t>(
      1, payload.empty() ? m : engine.capacity() / std::max<std::size_t>(
                                   payload.size(), 1));
  const auto machine_of = [&](std::size_t pos) {
    // Swap root and 0.
    if (pos == 0) return root;
    if (pos == root) return std::size_t{0};
    return pos;
  };

  std::vector<std::size_t> dests;
  std::size_t informed = 1;
  PayloadId pid = 0;
  while (informed < m) {
    // One stored copy per round, shared by every relay: each relay's sends
    // are (destination, payload-id) descriptors, so a round moves O(k)
    // simulator words no matter the fan-out — the engine still charges
    // every relay k words per destination.
    pid = engine.stage_payload(payload);
    const std::size_t senders = informed;
    std::size_t next = informed;
    for (std::size_t s = 0; s < senders && next < m; ++s) {
      dests.clear();
      for (std::size_t f = 0; f < fanout && next < m; ++f, ++next) {
        dests.push_back(machine_of(next));
      }
      engine.push_broadcast(machine_of(s), dests, pid);
    }
    engine.exchange();
    informed = next;
  }
  // The last relay round's stored copy is what every machine now holds.
  return engine.delivered_payload(pid);
}

std::vector<Word> gather_to(Engine& engine, std::size_t root,
                            const std::vector<std::vector<Word>>& parts) {
  const std::size_t m = engine.num_machines();
  for (std::size_t i = 0; i < m && i < parts.size(); ++i) {
    if (i == root) continue;  // root's own part needs no communication
    engine.push_gather(i, root, parts[i]);
  }
  engine.exchange();
  // Reassemble in machine order, substituting root's local part in place.
  // Each non-empty part arrived as exactly one shared segment, in sender
  // order — the reassembly is one bulk copy per part, no per-word walk.
  const InboxView in = engine.inbox_view(root);
  std::vector<Word> gathered;
  gathered.reserve(in.size() + (root < parts.size() ? parts[root].size() : 0));
  std::size_t seg = 0;
  const std::size_t segs_arrived = in.num_segments();
  for (std::size_t i = 0; i < m && i < parts.size(); ++i) {
    if (i == root) {
      gathered.insert(gathered.end(), parts[i].begin(), parts[i].end());
    } else if (!parts[i].empty()) {
      // Fewer segments than expected senders happens only under
      // unrecovered fault injection (a dark machine's flush is gone);
      // take what arrived rather than walking off the inbox.
      if (seg >= segs_arrived) break;
      const auto s = in.segment(seg++);
      gathered.insert(gathered.end(), s.begin(), s.end());
    }
  }
  engine.note_storage(root, gathered.size());
  return gathered;
}

std::vector<std::vector<Word>> all_to_all(
    Engine& engine, const std::vector<std::vector<std::vector<Word>>>& out) {
  const std::size_t m = engine.num_machines();
  for (std::size_t i = 0; i < m && i < out.size(); ++i) {
    // One streamed outbox per sender: each per-destination part is one run.
    Outbox ob = engine.outbox(i);
    for (std::size_t j = 0; j < m && j < out[i].size(); ++j) {
      ob.append_run(j, out[i][j]);
    }
  }
  engine.exchange();
  std::vector<std::vector<Word>> in(m);
  for (std::size_t j = 0; j < m; ++j) {
    engine.inbox_view(j).append_to(in[j]);
  }
  return in;
}

std::uint64_t all_reduce_sum(Engine& engine,
                             const std::vector<Word>& per_machine_value) {
  const std::size_t m = engine.num_machines();
  std::vector<std::vector<Word>> parts(m);
  for (std::size_t i = 0; i < m && i < per_machine_value.size(); ++i) {
    parts[i] = {per_machine_value[i]};
  }
  const auto gathered = gather_to(engine, 0, parts);
  std::uint64_t total = 0;
  for (const Word w : gathered) total += w;
  const Word payload[] = {total};
  broadcast_view(engine, 0, payload);
  return total;
}

std::uint64_t all_reduce_max(Engine& engine,
                             const std::vector<Word>& per_machine_value) {
  const std::size_t m = engine.num_machines();
  std::vector<std::vector<Word>> parts(m);
  for (std::size_t i = 0; i < m && i < per_machine_value.size(); ++i) {
    parts[i] = {per_machine_value[i]};
  }
  const auto gathered = gather_to(engine, 0, parts);
  std::uint64_t best = 0;
  for (const Word w : gathered) best = std::max(best, w);
  const Word payload[] = {best};
  broadcast_view(engine, 0, payload);
  return best;
}

}  // namespace mpcg::mpc
