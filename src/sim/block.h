// Execution context of one simulated thread block.
//
// Kernels receive a Block per launched block. It provides (a) the block's
// shared memory, (b) the identity of the block within the grid, and
// (c) the charging interface through which the kernel reports its memory
// traffic and compute cycles. Charges are bulk operations ("this warp
// just read 256 coalesced bytes"), keeping functional simulation fast;
// the fidelity lives in the kernels, which charge exactly the traffic the
// corresponding CUDA kernel would generate.

#ifndef GJOIN_SIM_BLOCK_H_
#define GJOIN_SIM_BLOCK_H_

#include <cstdint>

#include "src/hw/kernel_stats.h"
#include "src/sim/shared_memory.h"

namespace gjoin::sim {

/// \brief Per-block kernel execution context and stats sink.
class Block {
 public:
  /// Constructed by Device::Launch; kernels only consume it.
  Block(int block_id, int grid_size, int num_threads, SharedMemory* shared)
      : block_id_(block_id),
        grid_size_(grid_size),
        num_threads_(num_threads),
        shared_(shared) {}

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// blockIdx.x equivalent.
  int block_id() const { return block_id_; }
  /// gridDim.x equivalent.
  int grid_size() const { return grid_size_; }
  /// blockDim.x equivalent.
  int num_threads() const { return num_threads_; }
  /// Number of warps in the block.
  int num_warps() const { return num_threads_ / 32; }

  /// The block's shared-memory scratchpad.
  SharedMemory& shared() { return *shared_; }

  // --- Traffic charging (device memory) ---

  /// Fully-coalesced streaming reads.
  void ChargeCoalescedRead(uint64_t bytes) {
    stats_.coalesced_read_bytes += bytes;
  }
  /// Fully-coalesced streaming writes.
  void ChargeCoalescedWrite(uint64_t bytes) {
    stats_.coalesced_write_bytes += bytes;
  }
  /// `count` uncoalesced accesses into a structure of `working_set_bytes`.
  void ChargeRandomAccess(uint64_t count, uint64_t working_set_bytes) {
    stats_.random_transactions += count;
    if (working_set_bytes > stats_.random_working_set_bytes) {
      stats_.random_working_set_bytes = working_set_bytes;
    }
  }

  // --- Shared memory and atomics ---

  /// Shared-memory traffic.
  void ChargeShared(uint64_t bytes) { stats_.shared_bytes += bytes; }
  /// Atomics on shared memory.
  void ChargeSharedAtomic(uint64_t count) { stats_.shared_atomics += count; }
  /// Atomics on device memory.
  void ChargeDeviceAtomic(uint64_t count) { stats_.device_atomics += count; }

  // --- Bulk helpers for the staged-partitioning idiom ---
  //
  // Batched kernels charge whole tuple runs at once instead of calling
  // the primitives once per tuple; the aggregates are identical because
  // every charge is a plain sum.

  /// `tuples` 8-byte tuples staged into shared memory, each claiming its
  /// stage slot with one shared-memory atomic.
  void ChargeStagePush(uint64_t tuples) {
    stats_.shared_bytes += 8 * tuples;
    stats_.shared_atomics += tuples;
  }
  /// `tuples` staged 8-byte tuples re-read from shared memory and
  /// scatter-written to their device-memory bucket.
  void ChargeStageFlush(uint64_t tuples) {
    stats_.shared_bytes += 8 * tuples;
    stats_.scatter_write_bytes += 8 * tuples;
  }

  // --- Compute ---

  /// SM cycles consumed by this block (warp-instructions issued).
  void ChargeCycles(uint64_t cycles) { cycles_ += cycles; }

  /// Finalizes the block's record (called by Device::Launch after the
  /// kernel body returns).
  hw::KernelStats TakeStats() {
    stats_.total_cycles = cycles_;
    stats_.max_block_cycles = cycles_;
    stats_.num_blocks = 1;
    return stats_;
  }

 private:
  int block_id_;
  int grid_size_;
  int num_threads_;
  SharedMemory* shared_;
  hw::KernelStats stats_;
  uint64_t cycles_ = 0;
};

}  // namespace gjoin::sim

#endif  // GJOIN_SIM_BLOCK_H_
