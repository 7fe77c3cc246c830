// Common types of the GPU join library.

#ifndef GJOIN_GPUJOIN_TYPES_H_
#define GJOIN_GPUJOIN_TYPES_H_

#include <cstdint>
#include <string>

#include "src/data/relation.h"
#include "src/sim/device.h"
#include "src/sim/device_memory.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief A columnar relation resident in (simulated) device memory.
struct DeviceRelation {
  sim::DeviceBuffer<uint32_t> keys;
  sim::DeviceBuffer<uint32_t> payloads;
  size_t size = 0;

  /// Physical bytes of the relation's join columns.
  uint64_t bytes() const { return static_cast<uint64_t>(size) * 8; }

  /// Allocates device buffers and copies a host relation into them.
  /// Transfer *time* is not charged here — data-movement costs belong to
  /// the execution strategies (in-GPU joins assume resident data; the
  /// out-of-GPU strategies time every transfer explicitly).
  [[nodiscard]]
  static util::Result<DeviceRelation> Upload(sim::Device* device,
                                             const data::Relation& rel);

  /// Uploads a view (a slice of a host relation) without an intermediate
  /// host copy — the segmented/chunked pipelines' path.
  [[nodiscard]]
  static util::Result<DeviceRelation> Upload(sim::Device* device,
                                             const data::RelationView& view);
};

/// \brief How join results leave the kernel.
enum class OutputMode {
  kAggregate,    ///< Fold payloads into a per-query aggregate (the paper's
                 ///< default micro-benchmark mode).
  kMaterialize,  ///< Write (r.payload, s.payload) pairs to device memory
                 ///< through the warp-buffered writer (Section III-C).
};

/// \brief Probe-phase algorithm for joining co-partitions (Section III-B/C).
enum class ProbeAlgorithm {
  kSharedHash,   ///< Hash table in shared memory, 16-bit offset chains.
  kNestedLoop,   ///< Ballot-based nested loop (Listing 1).
  kDeviceHash,   ///< Hash table in device memory (Fig. 6 baseline).
};

/// \brief Outcome of a (sub-)join: verified quantities plus modeled time.
struct JoinStats {
  uint64_t matches = 0;
  uint64_t payload_sum = 0;   ///< Order-independent checksum; compare with
                              ///< data::JoinOracle.
  double seconds = 0;         ///< Modeled end-to-end time.
  double partition_s = 0;     ///< Modeled time in partitioning kernels.
  double join_s = 0;          ///< Modeled time joining co-partitions
                              ///< (build + probe).
  double transfer_s = 0;      ///< Modeled PCIe time (out-of-GPU paths).
  double cpu_s = 0;           ///< Modeled host-side time (co-processing).

  /// Total throughput in tuples/second given the input cardinalities
  /// (the paper's metric: both relations counted, Section V-A).
  double Throughput(uint64_t build_tuples, uint64_t probe_tuples) const {
    return seconds > 0 ? static_cast<double>(build_tuples + probe_tuples) /
                             seconds
                       : 0;
  }
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_TYPES_H_
