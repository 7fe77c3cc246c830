// gjoin_perfbench — runs one workload of the repository benchmark.
//
// Usage (run.py drives it; see README.md):
//
//   gjoin_perfbench --workload=<name> --seed=<n> --seconds=<s>
//                   [--trace=0|1] [--trace_out=<file>] [--selfcheck]
//
// A run generates the workload's inputs from the seed and computes the
// oracle references (set-up, repeated and reported as a median), then
// runs one untimed warm-up iteration and timed iterations for --seconds.
// Each iteration composes the library's layer calls for its strategy,
// and every join is checked against data::JoinOracle. The modeled
// numbers and kernel counters of every iteration must be bit-identical
// to the warm-up's; a mismatch counts the iteration's joins as failed.
//
// --trace=0 reports the end-to-end metrics. --trace=1 alternates
// untraced and traced iterations and reports the per-layer metrics:
// host seconds from spans the benchmark records around its own calls
// into each module, modeled seconds and counters from what those calls
// return (JoinStats, SessionStats, Device::profile(), the session's
// obs::HostProfiler). --trace_out writes the spans as JSON.
//
// --selfcheck runs one iteration with inputs and device scaled down
// 2^4 and compares each join's JoinStats with api::Join on the same
// inputs, field by field and bit for bit. It prints a fingerprint of the
// modeled results, which run.py compares across host pool widths.
//
// The last line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/gjoin.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/exec/session.h"
#include "src/gpujoin/join_copartitions.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/hw/cpu_cost.h"
#include "src/hw/numa.h"
#include "src/hw/pcie.h"
#include "src/hw/spec.h"
#include "src/obs/profile.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/sim/device.h"
#include "src/sim/topology.h"
#include "src/util/bits.h"
#include "src/util/flags.h"
#include "src/util/thread_pool.h"

namespace gjoin::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The paper's modeled CPU thread count for co-processing, pinned so
/// modeled numbers do not follow the host's core count.
constexpr int kModeledCpuThreads = 16;
constexpr double kMiB = 1024.0 * 1024.0;
/// --selfcheck scales inputs and device down 2^4: small enough to run in
/// well under a second, large enough to keep two partitioning passes on
/// the in-GPU workload.
constexpr int kSelfcheckShrink = 4;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Independent per-stream seeds derived from the run's --seed
/// (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The paper's testbed with capacities and fixed overheads divided by
/// 2^log2_divisor, as the figure benches scale it (bench/common.cc), so
/// modeled throughput at the scaled size stands for the nominal one.
hw::HardwareSpec ScaledTestbed(int log2_divisor) {
  hw::HardwareSpec spec = hw::HardwareSpec::Icde2019Testbed();
  const double inv = 1.0 / static_cast<double>(uint64_t{1} << log2_divisor);
  auto scale = [inv](size_t bytes) {
    return static_cast<size_t>(static_cast<double>(bytes) * inv);
  };
  spec.gpu.device_memory_bytes = scale(spec.gpu.device_memory_bytes);
  spec.gpu.l2_bytes = scale(spec.gpu.l2_bytes);
  spec.gpu.random_bw_knee_bytes = scale(spec.gpu.random_bw_knee_bytes);
  spec.gpu.kernel_launch_us *= inv;
  spec.pcie.latency_us *= inv;
  spec.cpu.llc_bytes = scale(spec.cpu.llc_bytes);
  spec.cpu.l2_bytes_per_core = scale(spec.cpu.l2_bytes_per_core);
  spec.cpu.fixed_join_overhead_s *= inv;
  return spec;
}

/// The paper's {8, 7} radix layout with log2_divisor bits removed from
/// the first pass first, keeping per-partition sizes at paper values.
std::vector<int> ScaledPassBits(int log2_divisor) {
  std::vector<int> bits = {8, 7};
  int remove = log2_divisor;
  for (int& b : bits) {
    const int take = std::min(remove, b);
    b -= take;
    remove -= take;
  }
  std::vector<int> out;
  for (int b : bits) {
    if (b > 0) out.push_back(b);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

/// Significant key bits of a build side, derived exactly as
/// gpujoin::PreparePartitionedBuild derives them.
int KeyBits(const data::Relation& build) {
  uint32_t max_key = 1;
  for (uint32_t k : build.keys) max_key = std::max(max_key, k);
  return util::Log2Floor(max_key) + 1;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent
/// span and iteration. Written out when the run ends.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    int iteration = -1;  ///< Negative: a set-up repetition.
    std::string name;
    double start_s = 0;
    double end_s = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  double Now() const { return SecondsSince(epoch_); }
  void set_iteration(int iteration) { iteration_ = iteration; }

  int Begin(std::string name) {
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.iteration = iteration_;
    span.name = std::move(name);
    span.start_s = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end_s = Now();
    stack_.pop_back();
  }

  /// Adds the session's HostProfiler spans, whose clock started at
  /// `offset_s` on this tracer's clock, under the open span; nesting
  /// among them follows interval containment.
  void Import(const std::vector<obs::HostProfiler::Span>& spans,
              double offset_s) {
    std::vector<obs::HostProfiler::Span> sorted = spans;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.start_s < b.start_s;
                     });
    const int root = stack_.empty() ? -1 : stack_.back();
    std::vector<int> open;
    for (const auto& s : sorted) {
      const double start = offset_s + s.start_s;
      const double end = start + s.duration_s;
      while (!open.empty() &&
             spans_[static_cast<size_t>(open.back())].end_s < end) {
        open.pop_back();
      }
      Span span;
      span.id = static_cast<int>(spans_.size());
      span.parent = open.empty() ? root : open.back();
      span.iteration = iteration_;
      span.name = s.name;
      span.start_s = start;
      span.end_s = end;
      spans_.push_back(span);
      open.push_back(span.id);
    }
  }

  /// Seconds spent in spans called `name`, per iteration in `iterations`.
  std::vector<double> PerIteration(const std::string& name,
                                   const std::vector<int>& iterations) const {
    std::vector<double> out;
    for (int it : iterations) {
      double total = 0;
      for (const Span& s : spans_) {
        if (s.iteration == it && s.name == name) total += s.end_s - s.start_s;
      }
      out.push_back(total);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"parent\": %d, \"iteration\": %d, "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   s.id, s.parent, s.iteration, s.name.c_str(), s.start_s,
                   s.end_s, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  int iteration_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Iteration results.
// ---------------------------------------------------------------------------

/// One join of an iteration and its oracle reference.
struct JoinCheck {
  util::Status status;
  gpujoin::JoinStats stats;
  data::OracleResult expect;

  bool ok() const {
    return status.ok() && stats.matches == expect.matches &&
           stats.payload_sum == expect.payload_sum;
  }
};

/// What one iteration produced. `modeled` holds the modeled metrics and
/// kernel counters: all deterministic, so all part of the fingerprint.
struct Iteration {
  std::vector<JoinCheck> joins;
  std::map<std::string, double> modeled;

  std::string Fingerprint() const {
    std::string out;
    char buf[160];
    for (const JoinCheck& j : joins) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64 ",%" PRIu64 ",%a,%a,%a,%a,%a;",
                    j.stats.matches, j.stats.payload_sum, j.stats.seconds,
                    j.stats.partition_s, j.stats.join_s, j.stats.transfer_s,
                    j.stats.cpu_s);
      out += buf;
    }
    for (const auto& [name, value] : modeled) {
      std::snprintf(buf, sizeof(buf), "%s=%a;", name.c_str(), value);
      out += buf;
    }
    return out;
  }
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Kernel counters of the partition passes and co-partition joins,
/// summed over device launch profiles.
struct KernelTotals {
  hw::KernelStats pass1, pass2, join;
  uint64_t launches = 0;
  double join_block_cycles = 0;  ///< Sum of max_block_cycles * blocks.

  void Add(const sim::Device& device) {
    for (const sim::ProfileEntry& e : device.profile()) {
      ++launches;
      if (e.name.rfind("radix_partition_pass1", 0) == 0) {
        pass1.Merge(e.stats);
      } else if (e.name.rfind("radix_partition_pass2", 0) == 0) {
        pass2.Merge(e.stats);
      } else if (e.name.rfind("join_copartitions", 0) == 0) {
        join.Merge(e.stats);
        join_block_cycles += static_cast<double>(e.stats.max_block_cycles) *
                             static_cast<double>(e.stats.num_blocks);
      }
    }
  }

  void Publish(std::map<std::string, double>* m) const {
    (*m)["gpujoin.pass1.scatter_write_mb"] =
        static_cast<double>(pass1.scatter_write_bytes) / kMiB;
    (*m)["gpujoin.pass1.shared_atomics"] =
        static_cast<double>(pass1.shared_atomics);
    (*m)["gpujoin.pass2.scatter_write_mb"] =
        static_cast<double>(pass2.scatter_write_bytes) / kMiB;
    (*m)["gpujoin.join.random_transactions"] =
        static_cast<double>(join.random_transactions);
    (*m)["gpujoin.join.shared_mb"] =
        static_cast<double>(join.shared_bytes) / kMiB;
    (*m)["gpujoin.join.block_imbalance"] =
        Ratio(join_block_cycles, static_cast<double>(join.total_cycles));
    (*m)["sim.kernel_launches"] = static_cast<double>(launches);
  }
};

/// Modeled phase totals every workload reports from its JoinStats.
void PublishPhases(const std::vector<JoinCheck>& joins,
                   std::map<std::string, double>* m) {
  double partition_s = 0;
  double join_s = 0;
  for (const JoinCheck& j : joins) {
    partition_s += j.stats.partition_s;
    join_s += j.stats.join_s;
  }
  (*m)["gpujoin.partition_modeled_s"] = partition_s;
  (*m)["gpujoin.join_modeled_s"] = join_s;
}

/// The API configuration equivalent to a workload's composed calls.
api::JoinConfig ApiConfig(api::Strategy strategy, const std::vector<int>& bits,
                          bool materialize) {
  api::JoinConfig config;
  config.strategy = strategy;
  config.pass_bits = bits;
  config.materialize = materialize;
  config.cpu_threads = kModeledCpuThreads;
  return config;
}

gpujoin::PartitionedJoinConfig JoinConfigFor(const std::vector<int>& bits) {
  gpujoin::PartitionedJoinConfig config;
  config.partition.pass_bits = bits;
  return config;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  /// Inputs at their nominal sizes over 2^shrink on the testbed scaled
  /// down 2^(log2_divisor + shrink); shrink > 0 only in the self-check.
  Workload(uint64_t seed, int shrink, int log2_divisor)
      : seed_(seed),
        shrink_(shrink),
        log2_divisor_(log2_divisor + shrink),
        spec_(ScaledTestbed(log2_divisor_)),
        bits_(ScaledPassBits(log2_divisor_)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Set-up, part 1: the inputs, from the seed.
  virtual void Generate() = 0;
  /// Set-up, part 2: oracle references for every join.
  virtual void Oracle() = 0;
  /// Build + probe tuples joined per iteration.
  virtual uint64_t Tuples() const = 0;
  /// One iteration: the composed layer calls, with spans when `tracer`
  /// is set.
  virtual Iteration Run(Tracer* tracer) = 0;
  /// api::Join on the same inputs, one outcome per join of Run().
  virtual std::vector<util::Result<api::JoinOutcome>> ApiJoins() = 0;

  /// The paper's headline rate for this strategy (0 = none) and where
  /// the paper gives it.
  double headline_btps() const { return headline_btps_; }
  const char* headline_source() const { return headline_source_; }

  std::string Describe() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "divisor=2^%d device_memory_mb=%zu",
                  log2_divisor_, spec_.gpu.device_memory_bytes >> 20);
    std::string out = buf;
    out += " pass_bits={";
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(bits_[i]);
    }
    out += '}';
    return out;
  }

 protected:
  size_t Size(int log2_nominal) const {
    return size_t{1} << std::max(0, log2_nominal - shrink_);
  }

  const uint64_t seed_;
  const int shrink_;
  const int log2_divisor_;
  const hw::HardwareSpec spec_;
  const std::vector<int> bits_;
  double headline_btps_ = 0;
  const char* headline_source_ = "";
};

/// A unique uniform build joined with a uniform foreign-key probe,
/// aggregated: the input of the three strategy workloads, each of which
/// runs one join per iteration through its strategy's layer calls.
class UniformPair : public Workload {
 public:
  UniformPair(uint64_t seed, int shrink, int log2_divisor, int log2_build,
              int log2_probe)
      : Workload(seed, shrink, log2_divisor),
        log2_build_(log2_build),
        log2_probe_(log2_probe) {}

  void Generate() final {
    r_ = data::MakeUniqueUniform(Size(log2_build_), SubSeed(seed_, 1));
    s_ = data::MakeUniformProbe(Size(log2_probe_), r_.size(),
                                SubSeed(seed_, 2));
  }
  void Oracle() final { oracle_ = data::JoinOracle(r_, s_); }
  uint64_t Tuples() const final { return r_.size() + s_.size(); }

  Iteration Run(Tracer* tracer) final {
    Iteration it;
    JoinCheck check;
    check.expect = oracle_;
    sim::Device device(spec_);
    check.status = Join(&device, tracer, &check.stats, &it.modeled);
    it.joins.push_back(check);

    KernelTotals kernels;
    kernels.Add(device);
    kernels.Publish(&it.modeled);
    PublishPhases(it.joins, &it.modeled);
    it.modeled["modeled_btps"] =
        Ratio(static_cast<double>(Tuples()), check.stats.seconds) / 1e9;
    return it;
  }

  std::vector<util::Result<api::JoinOutcome>> ApiJoins() final {
    sim::Device device(spec_);
    std::vector<util::Result<api::JoinOutcome>> out;
    out.push_back(
        api::Join(&device, r_, s_, ApiConfig(strategy(), bits_, false)));
    return out;
  }

 protected:
  /// The strategy api::Join must run to match Join().
  virtual api::Strategy strategy() const = 0;
  /// The strategy's composed layer calls: fills `stats` and adds any
  /// strategy-specific modeled metrics to `modeled`.
  virtual util::Status Join(sim::Device* device, Tracer* tracer,
                            gpujoin::JoinStats* stats,
                            std::map<std::string, double>* modeled) = 0;

  data::Relation r_, s_;

 private:
  const int log2_build_;
  const int log2_probe_;
  data::OracleResult oracle_;
};

/// PCIe metrics of the two out-of-GPU strategies, from their JoinStats.
void PublishTransfer(const gpujoin::JoinStats& stats,
                     std::map<std::string, double>* m) {
  (*m)["outofgpu.transfer_modeled_s"] = stats.transfer_s;
  (*m)["outofgpu.pcie_busy_frac"] = Ratio(stats.transfer_s, stats.seconds);
}

/// Section III: unique build 2^24 joined with a uniform foreign-key
/// probe 2^25 on the testbed scaled by 8.
class InGpuUniform final : public UniformPair {
 public:
  InGpuUniform(uint64_t seed, int shrink)
      : UniformPair(seed, shrink, /*log2_divisor=*/3, 24, 25) {
    headline_btps_ = 4.0;
    headline_source_ = "in-GPU partitioned join, Section III";
  }

 private:
  api::Strategy strategy() const override { return api::Strategy::kInGpu; }

  util::Status Join(sim::Device* device, Tracer* tracer,
                    gpujoin::JoinStats* stats,
                    std::map<std::string, double>* /*modeled*/) override {
    gpujoin::PartitionedJoinConfig cfg = JoinConfigFor(bits_);
    cfg.join.key_bits = KeyBits(r_);
    gpujoin::DeviceRelation r_dev, s_dev;
    {
      ScopedSpan span(tracer, "gpujoin.upload");
      GJOIN_ASSIGN_OR_RETURN(r_dev,
                             gpujoin::DeviceRelation::Upload(device, r_));
      GJOIN_ASSIGN_OR_RETURN(s_dev,
                             gpujoin::DeviceRelation::Upload(device, s_));
    }
    gpujoin::PartitionedRelation r_parted, s_parted;
    {
      ScopedSpan span(tracer, "gpujoin.partition");
      GJOIN_ASSIGN_OR_RETURN(
          r_parted, gpujoin::RadixPartition(device, r_dev, cfg.partition));
      r_dev = gpujoin::DeviceRelation();  // api::Join consumes the build
      GJOIN_ASSIGN_OR_RETURN(
          s_parted, gpujoin::RadixPartition(device, s_dev, cfg.partition));
    }
    gpujoin::CoPartitionJoinResult joined;
    {
      ScopedSpan span(tracer, "gpujoin.join");
      GJOIN_ASSIGN_OR_RETURN(
          joined,
          gpujoin::JoinCoPartitions(device, r_parted, s_parted, cfg.join));
    }
    // The JoinStats api::Join reports for an in-GPU join.
    const hw::PcieModel pcie(spec_.pcie);
    stats->matches = joined.matches;
    stats->payload_sum = joined.payload_sum;
    stats->partition_s = r_parted.seconds + s_parted.seconds;
    stats->join_s = joined.seconds;
    stats->seconds = stats->partition_s + stats->join_s;
    stats->transfer_s =
        pcie.DmaSeconds(r_.bytes()) + pcie.DmaSeconds(s_.bytes());
    return util::Status::OK();
  }
};

/// Section IV-A: unique build 2^22 stays resident, a probe of 2^25 is
/// streamed, testbed scaled by 32.
class StreamProbe final : public UniformPair {
 public:
  StreamProbe(uint64_t seed, int shrink)
      : UniformPair(seed, shrink, /*log2_divisor=*/5, 22, 25) {
    headline_btps_ = 1.4;
    headline_source_ = "streaming probe, Section IV-A";
  }

 private:
  api::Strategy strategy() const override {
    return api::Strategy::kStreamingProbe;
  }

  util::Status Join(sim::Device* device, Tracer* tracer,
                    gpujoin::JoinStats* stats,
                    std::map<std::string, double>* modeled) override {
    outofgpu::StreamingProbeConfig cfg;
    cfg.join = JoinConfigFor(bits_);
    gpujoin::PreparedBuild prepared;
    {
      ScopedSpan span(tracer, "outofgpu.stream_build");
      GJOIN_ASSIGN_OR_RETURN(
          prepared, gpujoin::PreparePartitionedBuild(device, r_, cfg.join));
    }
    {
      ScopedSpan span(tracer, "outofgpu.stream_probe");
      GJOIN_ASSIGN_OR_RETURN(
          outofgpu::StreamingProbeRun run,
          outofgpu::StreamingProbeExecute(device, r_, s_, cfg, &prepared));
      *stats = run.stats;
    }
    PublishTransfer(*stats, modeled);
    return util::Status::OK();
  }
};

/// Section IV-B: unique build 2^24 joined with a probe of 2^25 on the
/// testbed scaled by 32, so neither side fits: CPU partitioning,
/// working-set packing and the pipelined co-processing join.
class CoProcess final : public UniformPair {
 public:
  CoProcess(uint64_t seed, int shrink)
      : UniformPair(seed, shrink, /*log2_divisor=*/5, 24, 25) {
    headline_btps_ = 1.2;
    headline_source_ = "CPU-GPU co-processing, Section IV-B";
  }

 private:
  api::Strategy strategy() const override {
    return api::Strategy::kCoProcessing;
  }

  util::Status Join(sim::Device* device, Tracer* tracer,
                    gpujoin::JoinStats* stats,
                    std::map<std::string, double>* modeled) override {
    // The configuration exec::Session derives for a co-processing query.
    outofgpu::CoProcessConfig cfg;
    cfg.join = JoinConfigFor(bits_);
    cfg.cpu.threads = kModeledCpuThreads;
    cfg.staging = hw::numa::PlacementPlanner(spec_)
                      .Plan(/*device_index=*/0, kModeledCpuThreads)
                      .stage;
    const hw::CpuCostModel cpu_model(spec_.cpu);
    cpu::HostPartitions r_parts, s_parts;
    {
      ScopedSpan span(tracer, "cpu.partition");
      GJOIN_ASSIGN_OR_RETURN(r_parts,
                             cpu::CpuRadixPartition(r_, cfg.cpu, cpu_model));
      GJOIN_ASSIGN_OR_RETURN(s_parts,
                             cpu::CpuRadixPartition(s_, cfg.cpu, cpu_model));
    }
    outofgpu::CoProcessPlan plan;
    {
      ScopedSpan span(tracer, "outofgpu.plan");
      GJOIN_ASSIGN_OR_RETURN(
          plan, outofgpu::PlanCoProcessJoinShared(device, r_, s_, cfg,
                                                  &r_parts, &s_parts,
                                                  nullptr, nullptr));
    }
    {
      ScopedSpan span(tracer, "outofgpu.pipeline");
      GJOIN_ASSIGN_OR_RETURN(
          outofgpu::CoProcessRun run,
          outofgpu::CoProcessExecutePlanned(device, plan, cfg));
      *stats = run.stats;
    }

    uint64_t h2d_bytes = 0;
    for (const auto& set : plan.runs) h2d_bytes += set.transfer_bytes;
    PublishTransfer(*stats, modeled);
    (*modeled)["outofgpu.working_sets"] = static_cast<double>(plan.runs.size());
    (*modeled)["outofgpu.restream_ratio"] =
        Ratio(static_cast<double>(h2d_bytes),
              static_cast<double>(plan.total_input_bytes));
    (*modeled)["outofgpu.cpu_modeled_s"] = stats->cpu_s;
    return util::Status::OK();
  }
};

/// Skew and materialization (Fig. 17) as a multi-query batch: one
/// exec::Session on two devices (testbed scaled by 32); a zipf-0.65
/// build of 2^22 shared by three probes of 2^22 at zipf 0, 0.5 and 0.65
/// with the same popular-value permutation; output materialized into
/// rings of one slot per probe tuple, which the output overruns.
///
/// The popular-value permutation is fixed (fig17's), so the seed varies
/// the sampled tuples but not which keys are popular. Which heavy hitters
/// share a radix partition sets how much block-nested-loop work the join
/// does; with a per-seed permutation, host time per iteration varied
/// from 3.4 to 4.3 s between seeds on the same machine.
class SkewBatch final : public Workload {
 public:
  SkewBatch(uint64_t seed, int shrink) : Workload(seed, shrink, 5) {}

  static constexpr uint64_t kPopularValuePerm = 171;
  static constexpr double kBuildZipf = 0.65;
  static constexpr double kProbeZipf[3] = {0.0, 0.5, 0.65};
  static constexpr int kDevices = 2;

  void Generate() override {
    const size_t n = Size(22);
    const uint64_t perm = kPopularValuePerm;
    r_ = data::MakeZipf(n, n, kBuildZipf, SubSeed(seed_, 1), perm);
    for (size_t q = 0; q < 3; ++q) {
      s_[q] = data::MakeZipf(n, n, kProbeZipf[q], SubSeed(seed_, 2 + q), perm);
    }
  }
  void Oracle() override {
    for (size_t q = 0; q < 3; ++q) oracle_[q] = data::JoinOracle(r_, s_[q]);
  }
  uint64_t Tuples() const override {
    uint64_t total = 0;
    for (const auto& s : s_) total += r_.size() + s.size();
    return total;
  }

  Iteration Run(Tracer* tracer) override {
    Iteration it;
    sim::Topology topology(spec_, kDevices);
    obs::HostProfiler profiler;
    const double profiler_epoch_s = tracer != nullptr ? tracer->Now() : 0;
    exec::SessionConfig session_cfg;
    if (tracer != nullptr) session_cfg.profiler = &profiler;
    exec::Session session(&topology, session_cfg);
    const api::JoinConfig cfg = ApiConfig(api::Strategy::kAuto, bits_, true);
    exec::QueryHandle handles[3];
    for (size_t q = 0; q < 3; ++q) handles[q] = session.Submit(r_, s_[q], cfg);

    util::Status run_status;
    {
      ScopedSpan span(tracer, "exec.run");
      run_status = session.Run();
      if (tracer != nullptr) tracer->Import(profiler.spans(), profiler_epoch_s);
    }

    uint64_t pairs = 0;
    uint64_t ring_slots = 0;
    for (size_t q = 0; q < 3; ++q) {
      JoinCheck check;
      check.expect = oracle_[q];
      if (!run_status.ok()) {
        check.status = run_status;
      } else {
        const exec::QueryResult& result = session.result(handles[q]);
        check.status = result.status;
        check.stats = result.outcome.stats;
      }
      pairs += check.stats.matches;
      ring_slots += s_[q].size();  // the session sizes rings to the probe
      it.joins.push_back(check);
    }

    KernelTotals kernels;
    for (int d = 0; d < kDevices; ++d) kernels.Add(topology.device(d));
    kernels.Publish(&it.modeled);
    PublishPhases(it.joins, &it.modeled);
    if (run_status.ok()) {
      const exec::SessionStats& stats = session.stats();
      it.modeled["exec.makespan_modeled_s"] = stats.makespan_s;
      it.modeled["exec.speedup"] = stats.speedup;
      it.modeled["exec.shared_build_hits"] =
          static_cast<double>(stats.shared_build_hits);
      it.modeled["exec.replicated_builds"] =
          static_cast<double>(stats.replicated_builds);
      it.modeled["exec.cache_hit_ratio"] =
          Ratio(static_cast<double>(stats.cache.hits),
                static_cast<double>(stats.cache.hits + stats.cache.misses));
      it.modeled["modeled_btps"] =
          Ratio(static_cast<double>(Tuples()), stats.makespan_s) / 1e9;
    }
    it.modeled["exec.output_pairs_per_ring_slot"] =
        Ratio(static_cast<double>(pairs), static_cast<double>(ring_slots));
    return it;
  }

  std::vector<util::Result<api::JoinOutcome>> ApiJoins() override {
    std::vector<util::Result<api::JoinOutcome>> out;
    for (size_t q = 0; q < 3; ++q) {
      sim::Device device(spec_);
      out.push_back(api::Join(&device, r_, s_[q],
                              ApiConfig(api::Strategy::kAuto, bits_, true)));
    }
    return out;
  }

 private:
  data::Relation r_;
  data::Relation s_[3];
  data::OracleResult oracle_[3];
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int shrink) {
  if (name == "ingpu_uniform") return std::make_unique<InGpuUniform>(seed, shrink);
  if (name == "stream_probe") return std::make_unique<StreamProbe>(seed, shrink);
  if (name == "coprocess") return std::make_unique<CoProcess>(seed, shrink);
  if (name == "skew_batch") return std::make_unique<SkewBatch>(seed, shrink);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bitwise equality of the JoinStats fields.
bool SameStats(const gpujoin::JoinStats& a, const gpujoin::JoinStats& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return a.matches == b.matches && a.payload_sum == b.payload_sum &&
         same(a.seconds, b.seconds) && same(a.partition_s, b.partition_s) &&
         same(a.join_s, b.join_s) && same(a.transfer_s, b.transfer_s) &&
         same(a.cpu_s, b.cpu_s);
}

/// --selfcheck: one iteration, compared join by join with api::Join.
int SelfCheck(Workload* workload, const std::string& name) {
  workload->Generate();
  workload->Oracle();
  const Iteration it = workload->Run(nullptr);
  const std::vector<util::Result<api::JoinOutcome>> api = workload->ApiJoins();
  uint64_t failed = 0;
  for (size_t i = 0; i < it.joins.size(); ++i) {
    const JoinCheck& j = it.joins[i];
    const bool api_ok = i < api.size() && api[i].ok();
    const bool same = api_ok && SameStats(j.stats, api[i]->stats);
    if (!j.ok() || !same) {
      ++failed;
      std::printf("selfcheck %s join %zu: status=%s oracle=%s api=%s\n",
                  name.c_str(), i, j.status.ToString().c_str(),
                  j.ok() ? "match" : "MISMATCH",
                  !api_ok ? "ERROR" : same ? "identical" : "DIFFERENT");
    }
  }
  std::printf("fingerprint %016" PRIx64 "\n", Fnv1a(it.Fingerprint()));
  std::printf("selfcheck %s: %s (%zu joins, composed layer calls vs "
              "api::Join)\n",
              name.c_str(), failed == 0 ? "PASS" : "FAIL", it.joins.size());
  PrintResult(failed == 0, it.joins.size(), failed, {});
  return failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  util::Result<util::Flags> parsed = util::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "gjoin_perfbench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const util::Flags& flags = *parsed;
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const bool selfcheck = flags.GetBool("selfcheck", false);
  const int shrink = selfcheck ? kSelfcheckShrink : 0;
  const std::string trace_out = flags.GetString("trace_out", "");

  if (MakeWorkload(name, seed, shrink) == nullptr || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: gjoin_perfbench --workload=<ingpu_uniform|"
                 "stream_probe|coprocess|skew_batch> --seed=<n> "
                 "--seconds=<s> [--trace=0|1] [--trace_out=<file>] "
                 "[--selfcheck]\n");
    return 2;
  }

  const char* env_threads = std::getenv("GJOIN_CPU_THREADS");
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              name.c_str(), seed, seconds, trace ? 1 : 0);
  std::printf("# host pool width=%zu (GJOIN_CPU_THREADS=%s, nproc=%u); "
              "modeled co-processing cpu_threads=%d; host allocator "
              "tuning off\n",
              util::ThreadPool::Default()->num_threads(),
              env_threads != nullptr ? env_threads : "unset",
              std::thread::hardware_concurrency(), kModeledCpuThreads);

  if (selfcheck) {
    std::unique_ptr<Workload> workload = MakeWorkload(name, seed, shrink);
    std::printf("# %s\n", workload->Describe().c_str());
    return SelfCheck(workload.get(), name);
  }

  // ---- Set-up: generation + oracle references, repeated for a median --
  constexpr int kSetupReps = 3;
  Tracer tracer;
  Tracer* const trace_sink = trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::vector<int> setup_iterations;  // set-up repetitions: -1, -2, ...
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();  // free the previous repetition's inputs first
    workload = MakeWorkload(name, seed, shrink);
    setup_iterations.push_back(-1 - rep);
    tracer.set_iteration(setup_iterations.back());
    const Clock::time_point start = Clock::now();
    ScopedSpan setup_span(trace_sink, "setup");
    {
      ScopedSpan span(trace_sink, "data.generate");
      workload->Generate();
    }
    {
      ScopedSpan span(trace_sink, "data.oracle");
      workload->Oracle();
    }
    setup_s.push_back(SecondsSince(start));
  }
  std::printf("# %s, %" PRIu64 " tuples per iteration\n",
              workload->Describe().c_str(), workload->Tuples());

  // ---- Iterations ------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  std::string reference;
  Iteration last;
  auto account = [&](const Iteration& it) {
    const std::string fp = it.Fingerprint();
    if (reference.empty()) reference = fp;
    const bool same = fp == reference;
    deterministic = deterministic && same;
    for (const JoinCheck& j : it.joins) {
      ++attempted;
      if (!j.ok() || !same) {
        ++failed;
        std::printf("# FAILED join: status=%s matches=%" PRIu64
                    " expected=%" PRIu64 " modeled %s\n",
                    j.status.ToString().c_str(), j.stats.matches,
                    j.expect.matches,
                    same ? "identical" : "DIFFERS from warm-up");
      }
    }
  };

  account(workload->Run(nullptr));  // warm-up, untimed

  // At least 3 untraced samples; a traced run alternates untraced and
  // traced iterations, at least 2 of each.
  const size_t min_plain = trace ? 2 : 3;
  const size_t min_traced = trace ? 2 : 0;
  std::vector<double> plain_s, traced_s;
  std::vector<int> traced_iterations;
  const Clock::time_point loop_start = Clock::now();
  for (int i = 0;; ++i) {
    if (SecondsSince(loop_start) >= seconds && plain_s.size() >= min_plain &&
        traced_s.size() >= min_traced) {
      break;
    }
    const bool traced_turn = trace && traced_s.size() < plain_s.size();
    Tracer* sink = nullptr;
    if (traced_turn) {
      tracer.set_iteration(i);
      traced_iterations.push_back(i);
      sink = &tracer;
    }
    Iteration it;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(sink, "iteration");
      it = workload->Run(sink);
    }
    (traced_turn ? traced_s : plain_s).push_back(SecondsSince(start));
    account(it);
    last = std::move(it);
  }

  const double iter_s = Median(plain_s);
  std::printf("# timed iterations: %zu untraced (median %.4f s, min %.4f, "
              "max %.4f)",
              plain_s.size(), iter_s,
              *std::min_element(plain_s.begin(), plain_s.end()),
              *std::max_element(plain_s.begin(), plain_s.end()));
  if (trace) {
    std::printf(", %zu traced (median %.4f s)", traced_s.size(),
                Median(traced_s));
  }
  std::printf("\n# setup repetitions: %d (median %.4f s)\n", kSetupReps,
              Median(setup_s));
  std::printf("# modeled results and kernel counters %s across all %" PRIu64
              " joins; fingerprint %016" PRIx64 "\n",
              deterministic ? "bit-identical" : "NOT identical", attempted,
              Fnv1a(reference));
  std::printf("# failed_ops_frac %.6g (%" PRIu64 " of %" PRIu64
              " joins failed the oracle or status check)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);

  const double modeled_btps = last.modeled["modeled_btps"];
  if (workload->headline_btps() > 0) {
    std::printf("# modeled_btps %.4f beside the paper's headline %.1f Btps "
                "(%s). The paper's three headline rates (4, 1.4 and 1.2 "
                "Btps) are the model's only reference results.\n",
                modeled_btps, workload->headline_btps(),
                workload->headline_source());
  } else {
    std::printf("# modeled_btps %.4f (batch tuples / makespan; the paper "
                "gives no headline rate for this case)\n",
                modeled_btps);
  }
  if (const auto ring = last.modeled.find("exec.output_pairs_per_ring_slot");
      ring != last.modeled.end()) {
    std::printf("# output pairs per ring slot %.2f (sized to stay >= 10, so "
                "host memory that grows with the join output shows in "
                "peak_rss_mb)\n",
                ring->second);
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"host_mtuples_per_s",
         Ratio(static_cast<double>(workload->Tuples()), iter_s) / 1e6,
         "Mtuples/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_s), "s"},
        {"modeled_btps", modeled_btps, "Btuples/s"},
    };
  } else {
    auto host = [&](const char* span) {
      return Median(tracer.PerIteration(span, traced_iterations));
    };
    auto setup = [&](const char* span) {
      return Median(tracer.PerIteration(span, setup_iterations));
    };
    auto modeled = [&](const char* key) {
      const auto found = last.modeled.find(key);
      return found != last.modeled.end() ? found->second : 0.0;
    };
    const double launches = modeled("sim.kernel_launches");
    metrics = {
        {"data.generate_s", setup("data.generate"), "s"},
        {"data.oracle_s", setup("data.oracle"), "s"},
        {"gpujoin.upload_host_s", host("gpujoin.upload"), "s"},
        {"gpujoin.partition_host_s", host("gpujoin.partition"), "s"},
        {"gpujoin.partition_modeled_s", modeled("gpujoin.partition_modeled_s"),
         "s"},
        {"gpujoin.pass1.scatter_write_mb",
         modeled("gpujoin.pass1.scatter_write_mb"), "MB"},
        {"gpujoin.pass1.shared_atomics", modeled("gpujoin.pass1.shared_atomics"),
         "count"},
        {"gpujoin.pass2.scatter_write_mb",
         modeled("gpujoin.pass2.scatter_write_mb"), "MB"},
        {"gpujoin.join_host_s", host("gpujoin.join"), "s"},
        {"gpujoin.join_modeled_s", modeled("gpujoin.join_modeled_s"), "s"},
        {"gpujoin.join.random_transactions",
         modeled("gpujoin.join.random_transactions"), "count"},
        {"gpujoin.join.shared_mb", modeled("gpujoin.join.shared_mb"), "MB"},
        {"gpujoin.join.block_imbalance", modeled("gpujoin.join.block_imbalance"),
         "ratio"},
        {"sim.kernel_launches", launches, "count"},
        {"sim.host_ms_per_launch", Ratio(iter_s * 1e3, launches), "ms"},
        {"outofgpu.stream_build_host_s", host("outofgpu.stream_build"), "s"},
        {"outofgpu.stream_probe_host_s", host("outofgpu.stream_probe"), "s"},
        {"outofgpu.transfer_modeled_s", modeled("outofgpu.transfer_modeled_s"),
         "s"},
        {"outofgpu.pcie_busy_frac", modeled("outofgpu.pcie_busy_frac"), "ratio"},
        {"outofgpu.plan_host_s", host("outofgpu.plan"), "s"},
        {"outofgpu.pipeline_host_s", host("outofgpu.pipeline"), "s"},
        {"outofgpu.working_sets", modeled("outofgpu.working_sets"), "count"},
        {"outofgpu.restream_ratio", modeled("outofgpu.restream_ratio"), "ratio"},
        {"outofgpu.cpu_modeled_s", modeled("outofgpu.cpu_modeled_s"), "s"},
        {"cpu.partition_host_s", host("cpu.partition"), "s"},
        {"exec.run_host_s", host("exec.run"), "s"},
        {"exec.plan_host_s", host("session:plan"), "s"},
        {"exec.execute_host_s", host("session:execute"), "s"},
        {"exec.schedule_host_s", host("session:schedule"), "s"},
        {"exec.makespan_modeled_s", modeled("exec.makespan_modeled_s"), "s"},
        {"exec.speedup", modeled("exec.speedup"), "ratio"},
        {"exec.shared_build_hits", modeled("exec.shared_build_hits"), "count"},
        {"exec.replicated_builds", modeled("exec.replicated_builds"), "count"},
        {"exec.cache_hit_ratio", modeled("exec.cache_hit_ratio"), "ratio"},
        {"exec.output_pairs_per_ring_slot",
         modeled("exec.output_pairs_per_ring_slot"), "ratio"},
        {"obs.trace_overhead_frac", Ratio(Median(traced_s), iter_s) - 1.0,
         "ratio"},
    };
    if (!trace_out.empty() && !tracer.Write(trace_out)) {
      std::fprintf(stderr, "gjoin_perfbench: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  PrintResult(failed == 0 && deterministic, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace gjoin::perfbench

int main(int argc, char** argv) { return gjoin::perfbench::Main(argc, argv); }
