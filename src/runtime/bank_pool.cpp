#include "runtime/bank_pool.h"

#include <algorithm>
#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/bitwise_tc.h"
#include "obs/trace.h"
#include "runtime/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tcim::runtime {

std::uint64_t DeriveBankSeed(std::uint64_t base, std::uint32_t bank) noexcept {
  // Mix the bank id through SplitMix64 so neighbouring banks land far
  // apart in seed space; bank 0 keeps the base seed, preserving the
  // single-bank ablation numbers verbatim.
  if (bank == 0) return base;
  return util::SplitMix64(base ^ util::SplitMix64(bank));
}

// --- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool(std::uint32_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("WorkerPool: need at least one thread");
  }
  threads_.reserve(num_threads);
  try {
    for (std::uint32_t t = 0; t < num_threads; ++t) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // A failed spawn (EAGAIN) must not leave live workers blocked on
    // members about to be destroyed, nor joinable threads for
    // ~vector<thread> to terminate on.
    {
      util::MutexLock lock(&mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    for (std::thread& t : threads_) t.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    util::MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Post(std::function<void()> task) {
  {
    util::MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(&mu_);
      while (!stopping_ && tasks_.empty()) cv_.Wait(mu_);
      if (tasks_.empty()) return;  // stopping_ && drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

// --- BankPool --------------------------------------------------------------

namespace {

/// Translates bank `bank`'s share of the tile plan into the arch
/// layer's execution plan (hub lane bounds + its tiles' rectangles).
arch::BankExecPlan MakeBankExecPlan(const TilePlan2d& plan,
                                    std::uint32_t bank) {
  arch::BankExecPlan exec;
  exec.hub_row_begin = plan.hub_row_bounds[bank];
  exec.hub_row_end = plan.hub_row_bounds[bank + 1];
  exec.hub_cols = plan.hubs;
  exec.is_hub = plan.is_hub.empty() ? nullptr : plan.is_hub.data();
  exec.tiles.reserve(plan.bank_tiles[bank].size());
  for (const std::uint32_t t : plan.bank_tiles[bank]) {
    const TileInfo& tile = plan.tiles[t];
    exec.tiles.push_back(arch::BankExecPlan::Tile{
        tile.row_begin, tile.row_end, tile.col_begin, tile.col_end});
  }
  return exec;
}

void RecordPlanMetrics(const GraphPartition& partition) {
  BankPoolMetrics& metrics = BankPoolMetrics::Get();
  metrics.replica_bytes.Set(
      static_cast<double>(partition.stats.replica_bytes));
  metrics.tile_imbalance.Set(partition.plan2d->TileImbalance());
}

/// Sums the per-shard pair counters (each shard writes its own slot —
/// RunShards runs them concurrently) into the registry once per
/// host-count fan-out.
void RecordPairPathMetrics(std::span<const bit::PairPathCounters> per_bank) {
  bit::PairPathCounters total;
  for (const bit::PairPathCounters& c : per_bank) total += c;
  if (total.zero_copy_pairs == 0) return;
  BankPoolMetrics& metrics = BankPoolMetrics::Get();
  metrics.pairs_zero_copy.Add(total.zero_copy_pairs);
  metrics.pairs_column_pivot.Add(total.column_pivot_pairs);
  metrics.pairs_hub_route.Add(total.hub_route_pairs);
}

std::uint32_t ThreadCount(const BankPoolConfig& config) {
  if (config.num_banks == 0 || config.num_banks > kMaxBanks) {
    throw std::invalid_argument("BankPool: num_banks must be in [1, " +
                                std::to_string(kMaxBanks) + "]");
  }
  if (config.num_threads > kMaxBanks) {
    throw std::invalid_argument("BankPool: num_threads must be <= " +
                                std::to_string(kMaxBanks));
  }
  if (config.num_threads != 0) return config.num_threads;
  // Default: one thread per bank, capped at the hardware concurrency.
  // Each in-flight shard instantiates a full configured-capacity
  // functional array + cache bookkeeping, so the cap also bounds peak
  // simulation memory at O(threads x array capacity).
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(config.num_banks, hw);
}

}  // namespace

BankPool::BankPool(BankPoolConfig config)
    : config_(std::move(config)), workers_(ThreadCount(config_)) {
  banks_.reserve(config_.num_banks);
  bank_busy_.reserve(config_.num_banks);
  for (std::uint32_t b = 0; b < config_.num_banks; ++b) {
    core::TcimConfig bank_config = config_.accelerator;
    bank_config.controller.rng_seed =
        DeriveBankSeed(config_.accelerator.controller.rng_seed, b);
    banks_.push_back(std::make_unique<core::TcimAccelerator>(bank_config));
    bank_busy_.push_back(&BankPoolMetrics::BankBusyMicros(b));
  }
}

void BankPool::RunShards(
    const GraphPartition& partition,
    const std::function<void(std::uint32_t)>& run_shard) const {
  // One completion latch per call so concurrent Count()/HostCountEpoch()
  // invocations can interleave on the same worker pool. Local state, so
  // the lock discipline is scope-visible rather than TCIM_GUARDED_BY:
  // `remaining`/`first_error` are only touched under `mu`.
  util::Mutex mu;
  util::CondVar done_cv;
  std::uint32_t remaining = num_banks();
  std::exception_ptr first_error;
  // Per-shard wall times, slot-per-bank so the workers write without
  // contending; folded into the registry after the latch.
  std::vector<double> shard_seconds(num_banks(), 0.0);

  const auto wait_for_shards = [&] {
    util::MutexLock lock(&mu);
    while (remaining != 0) done_cv.Wait(mu);
  };
  std::uint32_t posted = 0;
  try {
    for (std::uint32_t b = 0; b < num_banks(); ++b) {
      const ShardInfo& shard = partition.shards[b];
      workers_.Post([&, b, shard] {
        std::exception_ptr error;
        {
          std::string span_args;
          if (obs::TraceEnabled()) {
            span_args = "\"bank\":" + std::to_string(b) + ",\"rows\":[" +
                        std::to_string(shard.row_begin) + "," +
                        std::to_string(shard.row_end) + "]";
          }
          obs::TraceSpan span("shard", "bank", std::move(span_args));
          util::Timer clock;
          try {
            run_shard(b);
          } catch (...) {
            error = std::current_exception();
          }
          shard_seconds[b] = clock.ElapsedSeconds();
        }
        util::MutexLock lock(&mu);
        if (error && !first_error) first_error = error;
        if (--remaining == 0) done_cv.NotifyAll();
      });
      ++posted;
    }
  } catch (...) {
    // Post() failed mid-loop: already-posted tasks reference this
    // frame's locals, so drain them before unwinding.
    {
      util::MutexLock lock(&mu);
      remaining -= num_banks() - posted;
    }
    wait_for_shards();
    throw;
  }
  wait_for_shards();

  // Fold the run into runtime.bank.*: per-bank busy time, the shard
  // latency histogram, and the load-imbalance gauge (max/mean shard
  // time of THIS fan-out — the hub-bottleneck signal of ROADMAP #1).
  BankPoolMetrics& metrics = BankPoolMetrics::Get();
  metrics.shard_runs.Increment();
  double sum = 0.0;
  double max_shard = 0.0;
  for (std::uint32_t b = 0; b < num_banks(); ++b) {
    const double s = shard_seconds[b];
    metrics.shard_seconds.Observe(s);
    bank_busy_[b]->Add(static_cast<std::uint64_t>(s * 1e6));
    sum += s;
    max_shard = std::max(max_shard, s);
  }
  metrics.bank_busy_micros.Add(static_cast<std::uint64_t>(sum * 1e6));
  if (sum > 0.0) {
    metrics.shard_imbalance.Set(max_shard * num_banks() / sum);
  }
  if (first_error) std::rethrow_exception(first_error);
}

GraphPartition BankPool::Plan(const bit::SlicedMatrix& matrix) const {
  obs::TraceSpan span("partition.plan", "bank", "");
  GraphPartition partition = PartitionMatrix(
      matrix, num_banks(), config_.partition, config_.partition2d);
  RecordPlanMetrics(partition);
  return partition;
}

ClusterResult BankPool::Count(const graph::Graph& g) const {
  util::Timer timer;
  const graph::Orientation orientation = config_.accelerator.orientation;

  // The offline stages (Fig. 4 "data slicing"): orient, slice,
  // partition.
  const bit::SlicedMatrix matrix = core::BuildSlicedMatrix(
      g, orientation, banks_.front()->config().slice_bits);
  GraphPartition partition = Plan(matrix);
  const TilePlan2d& plan = *partition.plan2d;

  std::vector<core::TcimResult> per_bank(num_banks());
  RunShards(partition, [&](std::uint32_t b) {
    per_bank[b] = banks_[b]->RunOnMatrixPlan(matrix, orientation,
                                             MakeBankExecPlan(plan, b));
  });

  ClusterResult cluster =
      AggregateClusterResult(std::move(partition), orientation,
                             std::move(per_bank), matrix.ComputeStats(),
                             config_.accelerator.perf);
  cluster.host_seconds = timer.ElapsedSeconds();
  return cluster;
}

ServingPlan2d BankPool::BuildServingPlan(
    const bit::SlicedMatrix& matrix) const {
  ServingPlan2d plan;
  plan.partition = Plan(matrix);
  const std::vector<std::uint32_t>& hubs = plan.partition.plan2d->hubs;
  if (!hubs.empty()) {
    // One COW extract of the hub columns, copied per bank (slab
    // shared_ptr bumps, not data copies).
    plan.replicas.assign(num_banks(), matrix.cols().ExtractVectors(hubs));
  }
  return plan;
}

std::uint64_t BankPool::HostCountEpoch(const EpochSnapshot& epoch) const {
  const bit::SlicedMatrix& matrix = *epoch.matrix;
  // hub_k only shapes 2D plans; 1D pools that differ in it share one.
  const PlanKey key{num_banks(), config_.partition,
                    config_.partition == PartitionStrategy::k2dHubReplicated
                        ? config_.partition2d.hub_k
                        : 0};
  PlanCache2d::PlanPtr plan;
  if (epoch.plan2d != nullptr) {
    plan = epoch.plan2d->GetOrBuild(key,
                                    [&] { return BuildServingPlan(matrix); });
  }
  // Defensive rebuild: a plan carried forward across publishes is only
  // valid while the vertex range it was sized for still matches (the
  // session invalidates on growth; never trust it blindly).
  if (plan == nullptr ||
      plan->partition.plan2d->num_vertices != matrix.num_vertices()) {
    plan = std::make_shared<const ServingPlan2d>(BuildServingPlan(matrix));
  }
  const TilePlan2d& tiles = *plan->partition.plan2d;

  // Disjoint shards partition the raw Eq. (5) sum exactly, and the
  // orientation divide happens once on the cluster total (a single
  // kFullSymmetric shard's bitcount need not be divisible by 6).
  std::vector<std::uint64_t> per_bank(num_banks(), 0);
  std::vector<bit::PairPathCounters> paths(num_banks());
  RunShards(plan->partition, [&](std::uint32_t b) {
    const bit::SlicedStore* replica =
        plan->replicas.empty() ? nullptr : &plan->replicas[b];
    per_bank[b] = CountBankShard2d(matrix, tiles, b, replica, &paths[b]);
  });
  RecordPairPathMetrics(paths);
  std::uint64_t raw = 0;
  for (const std::uint64_t shard_count : per_bank) raw += shard_count;
  return raw / graph::CountMultiplier(epoch.orientation);
}

}  // namespace tcim::runtime
