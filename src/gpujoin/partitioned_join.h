// The in-GPU partitioned hash join: the paper's core contribution for
// GPU-resident data (Section III). Orchestrates radix partitioning of
// both relations followed by the co-partition join pass. One join over
// two DeviceInputs, one over a prepared (shared) build side; the host
// entry point composes them.

#ifndef GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
#define GJOIN_GPUJOIN_PARTITIONED_JOIN_H_

#include "src/data/relation.h"
#include "src/gpujoin/join_copartitions.h"
#include "src/gpujoin/radix_partition.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Full configuration of the in-GPU partitioned join.
struct PartitionedJoinConfig {
  RadixPartitionConfig partition;     ///< Default: 2 passes to 2^15.
  CoPartitionJoinConfig join;         ///< Default: shared-memory hash join.

  /// Materialized-output ring capacity in pairs; 0 sizes it to the probe
  /// cardinality (the natural 1:1 result size).
  size_t out_capacity = 0;
};

/// \brief A build side partitioned once, reusable across several probes
/// — the multi-query sharing primitive (concurrent queries against a
/// common relation share its device-resident partitioned form instead of
/// re-uploading and re-partitioning).
struct PreparedBuild {
  PartitionedRelation parted;
  int key_bits = 0;  ///< Derived from the build keys when config left 0.
};

/// The join's significant key bits for a build side whose largest key is
/// `max_key` (what join.key_bits = 0 auto-derives). Empty inputs count
/// as max_key = 1: keys start at 1 in the paper's workloads.
int KeyBitsForMaxKey(uint32_t max_key);

/// Uploads `build` and partitions it, freeing the raw columns after the
/// first pass.
[[nodiscard]]
util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config);

/// Runs the partitioned join over two inputs of any DeviceInput kind
/// (a device relation, borrowed or owned; host-staged chunks; a segmented
/// host upload) and returns verified counts plus modeled per-phase
/// timing. Owned inputs are freed as soon as their partitioned form
/// exists — the standard device-memory discipline of real
/// implementations, and what lets the larger build:probe ratios of
/// Fig. 8 fit in device memory. The config's join.key_bits is
/// auto-derived from the build keys when 0.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        DeviceInput build, DeviceInput probe,
                                        const PartitionedJoinConfig& config);

/// Joins `probe` against a prepared build. Returns stats identical to
/// the two-input PartitionedJoin over the same tuples — partitioning is
/// deterministic, so the prepared form's seconds stand in for a fresh
/// run's.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const PreparedBuild& build,
                                        DeviceInput probe,
                                        const PartitionedJoinConfig& config);

/// The join phase every partitioned strategy ends with: the output ring
/// when materializing (config.out_capacity pairs, or the probe
/// cardinality `probe_size` when 0), the co-partition join pass, and the
/// stats roll-up over both partitioned inputs.
[[nodiscard]]
util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PartitionedRelation& r_parted,
                                       const PartitionedRelation& s_parted,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size);

/// Highest-level in-GPU entry point: uploads from host relations,
/// partitioning the probe side in segments (0 = auto-size so everything
/// fits device memory) so large build:probe ratios remain feasible.
/// Upload *timing* is not charged (in-GPU experiments assume resident
/// data; out-of-GPU strategies time transfers explicitly).
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments = 0);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
