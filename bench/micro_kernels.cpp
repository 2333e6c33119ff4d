// Micro-kernel benchmarks (google-benchmark): the primitive operations
// of the stack — popcount strategies, the fused AND+BitCount kernel,
// valid-pair merge enumeration, cache access, and the functional PIM
// AND op.
#include <benchmark/benchmark.h>

#include <vector>

#include "arch/slice_cache.h"
#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "pim/bit_counter.h"
#include "pim/computational_array.h"
#include "util/rng.h"

namespace {

using namespace tcim;

std::vector<std::uint64_t> RandomWords(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

void BM_Popcount(benchmark::State& state) {
  const auto kind = static_cast<bit::PopcountKind>(state.range(0));
  const auto words = RandomWords(4096, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::PopcountWords(words, kind));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096 * 8);
}
BENCHMARK(BM_Popcount)
    ->Arg(static_cast<int>(bit::PopcountKind::kBuiltin))
    ->Arg(static_cast<int>(bit::PopcountKind::kSwar))
    ->Arg(static_cast<int>(bit::PopcountKind::kLut8))
    ->Arg(static_cast<int>(bit::PopcountKind::kLut16));

// The host AND+BitCount kernel over one span; arg = words per operand
// (8 = one |S|=512 slice, 65536 = L2-spilling).
void BM_AndPopcountFused(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const auto a = RandomWords(words, 2);
  const auto b = RandomWords(words, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::AndPopcount(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 16);
}
BENCHMARK(BM_AndPopcountFused)->Arg(8)->Arg(512)->Arg(4096)->Arg(65536);

void BM_HardwareBitCounterModel(benchmark::State& state) {
  const auto words = RandomWords(4096, 4);
  pim::BitCounter counter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.FeedWords(words));
  }
}
BENCHMARK(BM_HardwareBitCounterModel);

void BM_ValidPairMerge(benchmark::State& state) {
  const graph::Graph g =
      graph::Rmat(1 << 14, 120000, graph::RmatParams{}, 5);
  const bit::SlicedMatrix m =
      core::BuildSlicedMatrix(g, graph::Orientation::kUpper, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.AndPopcountAllEdges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ValidPairMerge);

// Args: {sets, ways}. Each set draws tags uniformly from 8/3 x its
// ways, so a warm set hits ~3/8 of the time — about the roadNet-CA
// pass's ~38% hit rate. {4096, 340} is the default 16 MB array.
void BM_SliceCacheAccess(benchmark::State& state) {
  const auto sets = static_cast<std::uint64_t>(state.range(0));
  const auto ways = static_cast<std::uint32_t>(state.range(1));
  const std::uint64_t tags = 8ULL * ways / 3;
  arch::SliceCache cache(sets, ways, arch::ReplacementPolicy::kLru);
  util::Xoshiro256 rng(6);
  for (std::uint64_t i = 0; i < 2 * sets * tags; ++i) {  // warm every set
    (void)cache.Access(rng.UniformBelow(sets), rng.UniformBelow(tags));
  }
  cache.ResetStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(rng.UniformBelow(sets), rng.UniformBelow(tags)));
  }
  state.counters["hit_rate"] = cache.stats().HitRate();
}
BENCHMARK(BM_SliceCacheAccess)->Args({1024, 16})->Args({4096, 340});

void BM_PimArrayAnd(benchmark::State& state) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  const pim::SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const pim::SliceAddr b{.subarray = 0, .row = 1, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{0xDEADBEEFULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{0xC0FFEEULL});
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.AndPopcount(a, b));
  }
}
BENCHMARK(BM_PimArrayAnd);

// Slicing one oriented CSR into both stores (SlicedMatrix::FromCsr).
// Arg 0 picks the graph: 0 = a 20k-vertex HolmeKim graph whose
// per-vertex arrays fit in cache, 1 = a ~500k-vertex GeometricRoad
// graph (roadNet-CA stand-in size) whose column scatter does not. Arg 1
// is |S|.
const graph::OrientedCsr& SliceBenchCsr(std::int64_t which) {
  static const graph::OrientedCsr kHolmeKim = graph::Orient(
      graph::HolmeKim(20000, 140000, 0.6, 7), graph::Orientation::kUpper);
  static const graph::OrientedCsr kRoad =
      graph::Orient(graph::GeometricRoad(500000, graph::RoadParams{}, 7),
                    graph::Orientation::kUpper);
  return which == 0 ? kHolmeKim : kRoad;
}

void BM_SliceCompression(benchmark::State& state) {
  const graph::OrientedCsr& csr = SliceBenchCsr(state.range(0));
  const auto slice_bits = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::SlicedMatrix::FromCsr(
        csr.num_vertices, csr.offsets, csr.neighbors, slice_bits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.arc_count()));
  state.SetLabel(state.range(0) == 0 ? "holmekim-20k" : "road-500k");
}
BENCHMARK(BM_SliceCompression)
    ->ArgsProduct({{0, 1}, {64, 512}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
