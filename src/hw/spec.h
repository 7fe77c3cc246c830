// Hardware description used by the simulated GPU and all cost models.
//
// The defaults describe the paper's testbed (Section V-A): an NVIDIA
// GTX 1080 (Pascal, 20 SMs, 8 GB GDDR5X at 320 GB/s, PCIe 3.0 x16) in a
// dual-socket server with two 12-core Intel Xeon E5-2650L v3 CPUs and
// 256 GB of RAM. Every constant that the timing model depends on lives
// here, so re-targeting the reproduction to another machine (e.g., a V100
// on PCIe 4.0, to test the paper's "faster interconnects" prediction) is
// a matter of building a different HardwareSpec.
//
// Calibration constants (efficiency factors) encode well-known gaps
// between peak and achievable numbers; they were tuned once against the
// headline shapes of the paper's Figures 5-13 and are exercised by the
// shape checks in bench/.

#ifndef GJOIN_HW_SPEC_H_
#define GJOIN_HW_SPEC_H_

#include <cstddef>
#include <cstdint>

namespace gjoin::hw {

/// \brief GPU device parameters (defaults: GTX 1080).
struct GpuSpec {
  // --- Architecture ---
  int num_sms = 20;                     ///< Streaming multiprocessors.
  int warp_size = 32;                   ///< Threads per warp.
  int max_threads_per_block = 1024;     ///< CUDA block size limit.
  int blocks_per_sm = 2;                ///< Concurrent resident blocks/SM.
  size_t shared_mem_per_block = 48 << 10;  ///< Programmable shared memory.
  double clock_ghz = 1.6;               ///< SM clock.

  // --- Device memory ---
  size_t device_memory_bytes = 8ull << 30;  ///< Total device memory.
  double device_bw_gbps = 320.0;        ///< Peak GDDR5X bandwidth.
  double stream_efficiency = 0.78;      ///< Achievable fraction for
                                        ///< coalesced streaming access.
  double partition_write_efficiency = 0.68;  ///< Fraction of peak achieved by
                                        ///< the scatter writes of radix
                                        ///< partitioning (bucket metadata,
                                        ///< partially filled transactions).
  size_t random_transaction_bytes = 32; ///< Memory transaction granularity
                                        ///< for an uncoalesced access.
  double random_dram_bw_gbps = 310.0;   ///< Random-transaction bandwidth at
                                        ///< small footprints: massive
                                        ///< thread-level parallelism keeps
                                        ///< the memory system near peak.
  double random_bw_floor_gbps = 90.0;   ///< Asymptote for multi-GB random
                                        ///< footprints (TLB misses, row
                                        ///< conflicts dominate).
  size_t random_bw_knee_bytes = 64 << 20;  ///< Footprint where random
                                        ///< bandwidth starts decaying.
  double random_bw_decay = 0.5;         ///< Power-law decay exponent past
                                        ///< the knee.
  size_t l2_bytes = 2 << 20;            ///< L2 cache (random-access hits).
  double l2_bw_gbps = 500.0;            ///< L2 bandwidth for random hits.

  // --- Shared memory & atomics ---
  double shared_bw_gbps = 4000.0;       ///< Aggregate shared-memory BW.
  double shared_atomic_gops = 64.0;     ///< Shared-memory atomics/sec (1e9),
                                        ///< warp-aggregated.
  double device_atomic_gops = 8.0;      ///< Device-memory atomics/sec (1e9)
                                        ///< across distinct addresses.

  // --- Kernel launch ---
  double kernel_launch_us = 5.0;        ///< Fixed launch overhead.
};

/// \brief PCIe interconnect parameters (defaults: PCIe 3.0 x16).
struct PcieSpec {
  double bw_gbps = 12.3;        ///< Effective pinned-memory DMA bandwidth
                                ///< (theoretical max 15.8 GB/s).
  double latency_us = 10.0;     ///< Per-transfer setup latency.
  int num_dma_engines = 2;      ///< One H2D + one D2H copy engine.

  // Zero-copy (UVA) access: each device-side access moves one bus
  // transaction; deep queueing sustains only a fraction of the bandwidth
  // and sequential UVA reads behave like slightly degraded DMA.
  size_t uva_transaction_bytes = 32;
  double uva_random_bw_gbps = 11.0;  ///< Random zero-copy throughput with
                                     ///< deep queueing (near link rate;
                                     ///< each transaction still moves a
                                     ///< mostly-wasted 32B burst).
  double uva_stream_bw_gbps = 10.0;  ///< Sequential zero-copy throughput.

  // Unified Memory: page-granular on-demand migration.
  size_t um_page_bytes = 64 << 10;
  double um_fault_us = 25.0;       ///< Cost to service one page fault group.
  double um_migration_bw_gbps = 6.0;  ///< Sustained migration throughput.
};

/// \brief Inter-device interconnect parameters (defaults: peer-to-peer
/// DMA through the PCIe switch, the only path available on the paper's
/// testbed generation; an NVLink-class machine raises peer_bw_gbps).
///
/// Multi-GPU topologies use this link to replicate device-resident
/// artifacts (e.g. a partitioned build) device-to-device instead of
/// re-uploading them from the host: the copy rides the peer fabric, so
/// it neither occupies the destination's H2D engine nor re-runs the
/// partitioning kernels.
struct InterconnectSpec {
  double peer_bw_gbps = 11.0;   ///< P2P DMA bandwidth (slightly below
                                ///< host DMA: both endpoints traverse
                                ///< the switch).
  double peer_latency_us = 12.0;  ///< Per-copy setup latency.
};

/// \brief Host CPU and memory-system parameters
/// (defaults: 2x Xeon E5-2650L v3, DDR4).
struct CpuSpec {
  int sockets = 2;
  int cores_per_socket = 12;
  int smt_per_core = 2;               ///< Hyper-threads per core.
  double clock_ghz = 1.8;

  double socket_mem_bw_gbps = 55.0;   ///< Per-socket DRAM bandwidth.
  double per_thread_stream_bw_gbps = 5.5;  ///< Achievable streaming copy
                                      ///< bandwidth of one thread (read+
                                      ///< write combined counting).
  double qpi_bw_gbps = 9.0;           ///< Effective cross-socket link BW.
  double qpi_congestion_factor = 0.55;  ///< Remaining fraction of QPI BW
                                      ///< when coherency/partition traffic
                                      ///< competes with DMA reads.
  size_t llc_bytes = 30 << 20;        ///< Shared L3 per socket.
  size_t l2_bytes_per_core = 256 << 10;
  double random_access_ns = 85.0;     ///< DRAM random access latency.
  int mlp = 10;                       ///< Outstanding misses per thread.
  size_t cache_line_bytes = 64;
  int tlb_entries = 64;               ///< L1 dTLB entries; bounds the
                                      ///< efficient radix fanout per pass.
  double fixed_join_overhead_s = 0.005;  ///< Thread spawn, barriers,
                                      ///< histogram merges per join.

  /// Total hardware threads across sockets.
  int total_threads() const { return sockets * cores_per_socket * smt_per_core; }
};

/// \brief Complete machine description.
struct HardwareSpec {
  GpuSpec gpu;
  PcieSpec pcie;
  CpuSpec cpu;
  InterconnectSpec interconnect;

  /// The paper's testbed (GTX 1080 + 2x E5-2650L v3). Default-constructed
  /// members already describe it; this named factory documents intent.
  static HardwareSpec Icde2019Testbed() { return HardwareSpec{}; }
};

}  // namespace gjoin::hw

#endif  // GJOIN_HW_SPEC_H_
