// Asynchronous bounded-staleness ADMM with quorum aggregation: the public
// entry point of the quorum schedule.
//
// The engine itself is core/quorum_admm.hpp — the one distributed PLOS
// round loop, whose synchronous schedule is core::train_distributed_plos.
// This header names the asynchronous configuration of it: a partial
// quorum cuts each round at the quorum-th on-time upload, late uploads
// fold into later aggregates with a dual update against the consensus
// they were solved on, blocks older than the staleness bound are
// evicted, and per-device deadlines adapt from observed latencies. With
// quorum 1.0, no deadlines, and a bound that is never reached it is the
// synchronous trainer (DESIGN.md §14).
#pragma once

#include "common/assert.hpp"
#include "core/quorum_admm.hpp"
#include "data/dataset.hpp"
#include "net/simnet.hpp"

namespace plos::async {

using AsyncAggregateView = core::QuorumAggregateView;
using AsyncQuorumOptions = core::QuorumAdmmOptions;
using AsyncQuorumDiagnostics = core::QuorumAdmmDiagnostics;
using AsyncQuorumResult = core::QuorumAdmmResult;

/// Trains distributed PLOS under the asynchronous quorum schedule.
/// `network` is required: completion times are built from its link model
/// and ledger charges. The network must have one device per user.
inline AsyncQuorumResult train_async_quorum_plos(
    const data::MultiUserDataset& dataset, const AsyncQuorumOptions& options,
    net::SimNetwork* network) {
  PLOS_CHECK(network != nullptr,
             "train_async_quorum_plos: a SimNetwork is required (completion "
             "times are built from its link model)");
  return core::train_quorum_admm(dataset, options, *network);
}

}  // namespace plos::async
