#include "core/distributed_plos.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "core/quorum_admm.hpp"

namespace plos::core {

DistributedPlosResult train_distributed_plos(
    const data::MultiUserDataset& dataset,
    const DistributedPlosOptions& options, net::SimNetwork* network) {
  // The synchronous schedule: every round waits for all devices (quorum
  // 1.0, no per-device deadline) and no block is ever evicted. Fault-schedule
  // churn, retries, and round deadlines still apply through `network`.
  QuorumAdmmOptions schedule;
  schedule.base = options;
  schedule.quorum = 1.0;
  schedule.staleness_bound = std::numeric_limits<std::uint64_t>::max();
  schedule.adaptive_deadline = false;
  // Without a caller's network, simulate a default phone fleet and discard
  // its ledgers: the cut waits for every device, so the model is the same.
  std::optional<net::SimNetwork> fleet;
  if (network == nullptr) {
    network = &fleet.emplace(dataset.num_users(), net::DeviceProfile{},
                             net::LinkProfile{});
  }
  QuorumAdmmResult result = train_quorum_admm(dataset, schedule, *network);
  return {std::move(result.model), std::move(result.diagnostics)};
}

}  // namespace plos::core
