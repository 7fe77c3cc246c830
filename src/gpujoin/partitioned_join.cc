#include "src/gpujoin/partitioned_join.h"

#include <algorithm>
#include <utility>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

namespace {

/// Partitions `build`, deriving key_bits from its keys before the input
/// is consumed when the config leaves it 0.
util::Result<PreparedBuild> PrepareBuild(sim::Device* device,
                                         DeviceInput build,
                                         const PartitionedJoinConfig& config) {
  PreparedBuild prepared;
  prepared.key_bits = config.join.key_bits != 0
                          ? config.join.key_bits
                          : KeyBitsForMaxKey(build.MaxKey());
  GJOIN_ASSIGN_OR_RETURN(
      prepared.parted,
      RadixPartition(device, std::move(build), config.partition));
  return prepared;
}

}  // namespace

int KeyBitsForMaxKey(uint32_t max_key) {
  return util::Log2Floor(std::max<uint32_t>(max_key, 1)) + 1;
}

util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PartitionedRelation& r_parted,
                                       const PartitionedRelation& s_parted,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size) {
  OutputRing ring;
  OutputRing* ring_ptr = nullptr;
  if (config.join.output == OutputMode::kMaterialize) {
    const size_t capacity = config.out_capacity != 0
                                ? config.out_capacity
                                : std::max<size_t>(probe_size, 1);
    GJOIN_ASSIGN_OR_RETURN(ring,
                           OutputRing::Allocate(&device->memory(), capacity));
    ring_ptr = &ring;
  }

  GJOIN_ASSIGN_OR_RETURN(
      CoPartitionJoinResult join_result,
      JoinCoPartitions(device, r_parted, s_parted, config.join, ring_ptr));

  JoinStats stats;
  stats.matches = join_result.matches;
  stats.payload_sum = join_result.payload_sum;
  stats.partition_s = r_parted.seconds + s_parted.seconds;
  stats.join_s = join_result.seconds;
  stats.seconds = stats.partition_s + stats.join_s;
  return stats;
}

util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config) {
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation r_dev,
                         DeviceRelation::Upload(device, build));
  return PrepareBuild(device, std::move(r_dev), config);
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        DeviceInput build, DeviceInput probe,
                                        const PartitionedJoinConfig& config) {
  GJOIN_ASSIGN_OR_RETURN(PreparedBuild prepared,
                         PrepareBuild(device, std::move(build), config));
  return PartitionedJoin(device, prepared, std::move(probe), config);
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const PreparedBuild& build,
                                        DeviceInput probe,
                                        const PartitionedJoinConfig& config) {
  PartitionedJoinConfig cfg = config;
  if (cfg.join.key_bits == 0) cfg.join.key_bits = build.key_bits;
  const size_t probe_size = probe.size();
  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation s_parted,
      RadixPartition(device, std::move(probe), cfg.partition));
  return JoinPartedPair(device, build.parted, s_parted, cfg, probe_size);
}

util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments) {
  GJOIN_ASSIGN_OR_RETURN(PreparedBuild prepared,
                         PreparePartitionedBuild(device, build, config));
  return PartitionedJoin(device, prepared,
                         DeviceInput::Segmented(probe, probe_segments),
                         config);
}

}  // namespace gjoin::gpujoin
