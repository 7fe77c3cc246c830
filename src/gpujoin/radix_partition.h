// Multi-pass GPU radix partitioning with bucket chains (Section III-A).
//
// Pass 1 scans the input (see DeviceInput); each thread block stages
// tuples per partition in shared memory (the "shuffle space"), flushes
// staged runs into its current bucket with coalesced bursts, draws fresh
// buckets from the pool with a device atomic when one fills up, and
// finally publishes its chain segments wait-free onto the global
// per-partition lists.
//
// Later passes redistribute the previous pass's buckets to blocks either
// one bucket at a time (the paper's choice: skew-robust, but pays
// metadata re-initialization when consecutive buckets belong to
// different parent partitions) or one partition chain at a time (better
// for uniform data, collapses under skew because "the longest running
// CUDA block defines the total execution time"). Both assignments are
// implemented; WorkAssignment selects them, and bench/abl_assignment
// measures the trade-off.

#ifndef GJOIN_GPUJOIN_RADIX_PARTITION_H_
#define GJOIN_GPUJOIN_RADIX_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/gpujoin/bucket_chains.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::obs {
class MetricsRegistry;
}  // namespace gjoin::obs

namespace gjoin::gpujoin {

/// \brief How later passes hand the previous pass's output to blocks.
enum class WorkAssignment {
  kBucketAtATime,     ///< Paper's default: round-robin over buckets.
  kPartitionAtATime,  ///< Round-robin over whole partition chains.
};

/// \brief Configuration of the multi-pass partitioner.
struct RadixPartitionConfig {
  /// Radix bits consumed by each pass, lowest bits first. The paper's
  /// in-GPU experiments use {8, 7}: two passes to 2^15 partitions.
  std::vector<int> pass_bits = {8, 7};

  /// Key bit where the first pass starts. Non-zero when the relations
  /// were already partitioned on lower bits by the host (the
  /// co-processing strategy's CPU pre-partitioning, Section IV-B).
  int base_shift = 0;

  /// Tuples per bucket; 0 = auto-size (power of two, scaled to the
  /// expected final partition size, within [kMinBucketCapacity, 1024]).
  uint32_t bucket_capacity = 0;

  /// Threads per partitioning block (paper: 1024).
  int threads_per_block = 1024;

  /// Grid size; 0 = one block per SM slot (num_sms * blocks_per_sm).
  int num_blocks = 0;

  /// Work distribution for passes after the first.
  WorkAssignment assignment = WorkAssignment::kBucketAtATime;

  /// Shared-memory staging slots per partition ("shuffle space").
  uint32_t stage_elems = 16;

  /// Host-side software-managed scatter-buffer size in tuples per
  /// destination (Section IV-B's buffered scatter, applied to the
  /// simulator's own host execution). 0 = the process default
  /// (util::DefaultScatterBufferTuples), 1 = the scalar tuple-at-a-time
  /// reference loop. Purely a host-speed knob: results and charged
  /// KernelStats are bit-identical at every size
  /// (gpujoin_stat_invariance_test pins this).
  int scatter_buffer_tuples = 0;

  /// Optional sink for host-scatter throughput counters
  /// (gjoin_partition_scatter_bytes_total / _flushes_total). Observes
  /// only — attaching a registry never changes results or charges.
  obs::MetricsRegistry* metrics = nullptr;

  /// Total radix bits across all passes.
  int total_bits() const {
    int total = 0;
    for (int b : pass_bits) total += b;
    return total;
  }
  /// Final partition count.
  uint32_t num_partitions() const { return 1u << total_bits(); }
};

/// \brief A fully partitioned relation: final-pass chains + provenance.
struct PartitionedRelation {
  BucketChains chains;
  int radix_bits = 0;       ///< log2(number of partitions).
  int base_shift = 0;       ///< First key bit the partitioning consumed.
  uint64_t tuples = 0;      ///< Total elements across partitions.
  double seconds = 0;       ///< Modeled time summed over all passes.
  std::vector<double> pass_seconds;  ///< Modeled time per pass.
};

/// \brief The input of a partitioning run, in whichever form the caller
/// holds its tuples:
///
///   - a borrowed device relation (implicit from `const DeviceRelation&`),
///     read in place and left intact;
///   - an owned device relation (implicit from `DeviceRelation&&`), whose
///     raw columns are freed as soon as the first pass has read them;
///   - host-staged chunks (Add), e.g. the co-partitions of an out-of-GPU
///     working set: the first pass walks them in place through a cursor
///     and frees each chunk the moment the last thread block reading it
///     has finished, so peak residency is the partitioned output plus the
///     unread tail, never input plus output;
///   - a host relation uploaded and partitioned in segments (Segmented):
///     peak device footprint is one segment plus the partitioned form,
///     which is how large probe sides fit next to a partitioned build.
///
/// The first three run one first-pass launch over the same kernel, so
/// for the same tuples they give bucket-for-bucket identical output and
/// bit-identical charges (pinned by gpujoin_stat_invariance_test). A
/// segmented input runs one launch per segment. As with
/// DeviceRelation::Upload, transfer timing is the caller's concern.
class DeviceInput {
 public:
  DeviceInput() = default;
  /// Borrows `relation`, which must outlive the partitioning run.
  DeviceInput(const DeviceRelation& relation)
      : kind_(Kind::kBorrowed), borrowed_(&relation), total_(relation.size) {}
  /// Takes `relation` over; its columns are freed after the first pass.
  DeviceInput(DeviceRelation&& relation)
      : kind_(Kind::kOwned),
        owned_(std::move(relation)),
        total_(owned_.size) {}
  DeviceInput(DeviceInput&&) = default;
  DeviceInput& operator=(DeviceInput&&) = default;

  /// Uploads `relation` (which must outlive the run) in `segments`
  /// pieces, each freed once the first pass has read it. 0 = auto-size:
  /// as few segments (at most 16) as let one raw segment plus the
  /// partitioned form (~2x the data) fit the device's free memory.
  static DeviceInput Segmented(const data::Relation& relation, int segments);

  /// Appends one host-staged chunk, taking ownership of its columns
  /// (which must have equal length; empty chunks are dropped). Only for
  /// a default-constructed (chunk) input.
  void Add(std::vector<uint32_t> keys, std::vector<uint32_t> payloads);

  /// Total tuples.
  size_t size() const { return total_; }

  /// Largest key (0 when empty); call before the input is consumed.
  uint32_t MaxKey() const;

  /// \name Chunk consumption interface used by the first partitioning
  /// pass. BeginConsume fixes the per-block range size; each block walks
  /// its tuple range through a Cursor; BlockDone releases every chunk
  /// whose last reader finished.
  /// @{
  struct Cursor {
    uint32_t key() const { return *k_; }
    uint32_t pay() const { return *p_; }
    /// Advances one tuple. Must not be called past the last tuple of
    /// the owning block's range: the next chunk may belong entirely to
    /// other blocks and already be freed.
    void Next() {
      ++k_;
      ++p_;
      if (k_ == k_end_) Advance();
    }

   private:
    friend class DeviceInput;
    void Advance();
    const DeviceInput* in_ = nullptr;
    size_t chunk_ = 0;
    const uint32_t* k_ = nullptr;
    const uint32_t* p_ = nullptr;
    const uint32_t* k_end_ = nullptr;
  };
  /// Positions a cursor at global tuple index `i` (< size()).
  Cursor At(size_t i) const;
  void BeginConsume(size_t block_tuples);
  void BlockDone(size_t begin, size_t end);
  /// @}

 private:
  // A non-defining friend declaration cannot carry [[nodiscard]]; the
  // namespace-scope declaration below does.
  // lint:allow nodiscard
  friend util::Result<PartitionedRelation> RadixPartition(
      sim::Device* device, DeviceInput input,
      const RadixPartitionConfig& config);

  enum class Kind { kChunks, kBorrowed, kOwned, kSegmented };
  struct Chunk {
    std::vector<uint32_t> keys;
    std::vector<uint32_t> payloads;
    size_t begin = 0;  ///< Global index of the chunk's first tuple.
  };
  size_t ChunkEnd(size_t c) const {
    return c + 1 < chunks_.size() ? chunks_[c + 1].begin : total_;
  }
  /// The device relation of a borrowed or owned input, else nullptr.
  const DeviceRelation* flat() const {
    return kind_ == Kind::kBorrowed ? borrowed_
           : kind_ == Kind::kOwned  ? &owned_
                                    : nullptr;
  }

  Kind kind_ = Kind::kChunks;
  const DeviceRelation* borrowed_ = nullptr;
  DeviceRelation owned_;
  const data::Relation* host_ = nullptr;  ///< Segmented source.
  int segments_ = 0;
  std::vector<Chunk> chunks_;
  /// Remaining reader blocks per chunk (set by BeginConsume).
  std::unique_ptr<std::atomic<int>[]> readers_;
  size_t block_tuples_ = 0;
  size_t total_ = 0;
};

/// Runs all configured passes over `input` and returns the final
/// partitioned form. Partitioning is on `total_bits()` of the key above
/// base_shift, pass i consuming its bits above the bits of passes < i.
/// All passes share one bucket pool; later passes recycle consumed
/// buckets, so the footprint stays near the data size.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, DeviceInput input,
    const RadixPartitionConfig& config);

/// Auto-sizes bucket capacity for `tuples` spread over `partitions`
/// (exposed for tests).
uint32_t AutoBucketCapacity(uint64_t tuples, uint32_t partitions);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_RADIX_PARTITION_H_
