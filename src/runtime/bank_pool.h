// Bank pool: N independent TCIM accelerators (the paper's Fig. 4
// architecture is explicitly bank-parallel) driven by a worker thread
// pool, counting one graph cooperatively.
//
// One Count(g) call runs the offline stages once — orientation,
// slicing/compression, partitioning into a tile plan (PartitionMatrix)
// — then fans the shards out: bank b executes Algorithm 1 over its
// share of the plan against the *shared* compressed matrix
// (core::TcimAccelerator::RunOnMatrixPlan; a 1D shard is one
// whole-width row tile), and the per-shard results fold into a
// runtime::ClusterResult. The total is count-exact by construction
// (see runtime/partitioner.h); the registered exactness tests assert
// it against the single-accelerator path on every dataset and
// generator family.
//
// Each bank gets its own TcimConfig with a *derived* rng seed
// (DeriveBankSeed: SplitMix64 over bank id), so random-replacement
// ablations stay reproducible without the banks' victim choices being
// lockstep-identical.
//
// Thread-safety: Count() is const and safe to call concurrently; each
// call creates its own functional array + controller per shard, and
// the shared SlicedMatrix is immutable during the run.
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md. Units: SI seconds /
// joules via core::PerfResult; counts dimensionless.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "graph/graph.h"
#include "runtime/aggregate.h"
#include "runtime/epoch_manager.h"
#include "runtime/partitioner.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcim::runtime {

/// Derives bank b's rng seed from the cluster base seed (SplitMix64
/// mixing; distinct per bank, never equal to plain `base` for b > 0).
[[nodiscard]] std::uint64_t DeriveBankSeed(std::uint64_t base,
                                           std::uint32_t bank) noexcept;

/// Fixed-size FIFO worker pool. Post() never blocks; the destructor
/// drains every pending task before joining the threads.
class WorkerPool {
 public:
  explicit WorkerPool(std::uint32_t num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Post(std::function<void()> task);
  [[nodiscard]] std::uint32_t num_threads() const noexcept {
    return static_cast<std::uint32_t>(threads_.size());
  }

 private:
  void WorkerLoop();

  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<std::function<void()>> tasks_ TCIM_GUARDED_BY(mu_);
  bool stopping_ TCIM_GUARDED_BY(mu_) = false;
  /// Written only in the constructor; joined by the destructor.
  std::vector<std::thread> threads_;
};

/// Upper bound on banks per pool: far beyond any plausible layout, it
/// exists to reject configs whose per-bank arrays would exhaust host
/// memory (each bank prices a full configured-capacity array). An
/// in-flight shard holds that functional array plus cache bookkeeping
/// that grows with its resident slices (arch/slice_cache.h), not a
/// capacity-sized way table.
inline constexpr std::uint32_t kMaxBanks = 4096;

struct BankPoolConfig {
  std::uint32_t num_banks = 2;  ///< in [1, kMaxBanks]
  /// Worker threads driving the banks; 0 = one per bank, capped at the
  /// hardware concurrency (bounds peak memory: each in-flight shard
  /// holds one full functional array plus resident-proportional cache
  /// bookkeeping). Explicit values are bounded by kMaxBanks.
  std::uint32_t num_threads = 0;
  PartitionStrategy partition = PartitionStrategy::kDegreeBalanced;
  /// Planner options (hub_k; read under k2dHubReplicated only).
  Partition2dOptions partition2d;
  /// Per-bank template; controller.rng_seed is re-derived per bank.
  core::TcimConfig accelerator;
};

class BankPool {
 public:
  explicit BankPool(BankPoolConfig config);

  /// Full multi-bank pipeline: orient, slice, partition, run every
  /// shard on the pool, aggregate. Exact: ClusterResult::triangles ==
  /// TcimAccelerator::Run(g).triangles for every graph.
  [[nodiscard]] ClusterResult Count(const graph::Graph& g) const;

  /// The host-kernel count: counts the ALREADY-SLICED matrix of a
  /// pinned COW epoch snapshot on the bank shards with the host Eq. (5)
  /// pass (CountBankShard2d -> SlicedMatrix::AndPopcountRect on the
  /// host AND+popcount kernel) instead of the functional in-MRAM
  /// simulation — no orient, no re-slice, no architectural statistics.
  /// The tile plan (+ per-bank hub replicas, when it has hubs) is
  /// fetched from, or built into, the epoch's PlanCache2d under this
  /// pool's PlanKey for every strategy, so steady-state queries pay
  /// only the per-shard rectangle counts. Raw shard bitcounts are
  /// summed before the divide by the epoch's orientation multiplier,
  /// so the result is exact for every orientation. Thread-safe and
  /// concurrent like Count() — the scheduler's query jobs run this
  /// while update batches apply.
  [[nodiscard]] std::uint64_t HostCountEpoch(const EpochSnapshot& epoch) const;

  [[nodiscard]] std::uint32_t num_banks() const noexcept {
    return static_cast<std::uint32_t>(banks_.size());
  }
  [[nodiscard]] const core::TcimAccelerator& bank(std::uint32_t i) const {
    return *banks_.at(i);
  }
  [[nodiscard]] const BankPoolConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Plans `matrix` under this pool's strategy and options, and
  /// records the plan gauges.
  [[nodiscard]] GraphPartition Plan(const bit::SlicedMatrix& matrix) const;
  /// Plan() plus the per-bank hub replica stores (COW; shared slabs
  /// across banks) when the plan has hubs.
  [[nodiscard]] ServingPlan2d BuildServingPlan(
      const bit::SlicedMatrix& matrix) const;

  /// Fans one task per shard out to the worker pool and waits for all
  /// of them; the first shard exception (if any) is rethrown. Shared
  /// by Count() and HostCountEpoch().
  void RunShards(const GraphPartition& partition,
                 const std::function<void(std::uint32_t)>& run_shard) const;

  BankPoolConfig config_;
  std::vector<std::unique_ptr<core::TcimAccelerator>> banks_;
  /// Cached runtime.bank.<b>.busy_micros_total registry counters, one
  /// per bank (resolved once in the constructor, bumped per shard).
  std::vector<obs::Counter*> bank_busy_;
  mutable WorkerPool workers_;
};

}  // namespace tcim::runtime
