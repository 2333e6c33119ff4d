// Degree-ordered vertex relabeling — load-time graph preprocessing.
//
// The sliced stores (§5 bitmatrix) pay for every 64/512-bit slice that
// holds at least one neighbor bit: a hub's neighbors scattered across
// the whole id range touch many slices, each nearly empty. Renaming
// vertices in degree order packs the hubs into one contiguous id range
// and concentrates the dense rows/columns of the adjacency matrix into
// few slice indices, which (a) shrinks the valid-slice count NVS —
// less slice storage and fewer cache fills — and (b) shrinks
// |Ri ∩ Cj| merge work per edge. The order is ascending so that under
// kUpper orientation the id order is simultaneously a proper degree
// orientation (every edge points to its higher-degree endpoint). The TC journal version (arXiv 2112.00471) and the real-PIM
// study (arXiv 2505.04269) both identify this enumeration/layout cost,
// not the popcount, as the dominant term; bench/perf_harness measures
// the reduction per dataset and gates it in --check.
//
// The relabeling is a pure bijection on vertex ids: triangle counts
// are invariant, and every user-facing surface (CLI reports, stream
// replay, examples) maps ids back through ToOriginal so the rename is
// invisible outside the engine. VertexRelabeling is growable: a stream
// can introduce vertices the load-time graph never saw, and ToInternal
// assigns them fresh internal ids on first sight.
//
// Layer: §2 graph — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace tcim::graph {

/// Growable bijection original-id <-> internal-id. Internal ids are
/// dense in [0, size()); original ids may be sparse (stream growth
/// can mention any id).
class VertexRelabeling {
 public:
  VertexRelabeling() = default;

  /// internal == original for ids in [0, n) — the --relabel none map.
  [[nodiscard]] static VertexRelabeling Identity(VertexId n);

  /// Internal ids ordered by degree ascending, original id ascending
  /// as the tie-break: the hubs share the dense top of the id range,
  /// and under kUpper orientation the id order doubles as a proper
  /// degree orientation (u < v implies deg(u) <= deg(v), so every
  /// edge points from its lower- to its higher-degree endpoint).
  [[nodiscard]] static VertexRelabeling DegreeAscending(const Graph& g);

  /// Internal ids in BFS visit order, traversals seeded from the
  /// highest-degree unvisited vertex: neighbors land in adjacent id
  /// blocks, which is the locality that matters on low-skew graphs
  /// (road networks) where a degree sort has nothing to separate.
  [[nodiscard]] static VertexRelabeling BfsFromHubs(const Graph& g);

  /// Number of originals that currently have an internal id.
  [[nodiscard]] VertexId size() const noexcept {
    return static_cast<VertexId>(old_of_new_.size());
  }

  /// Internal id of `original`, assigning the next free internal id on
  /// first sight (the stream-growth path — a delta may name vertices
  /// the loaded graph never had). Throws std::invalid_argument for the
  /// largest VertexId, which no graph can hold (as in DynamicGraph).
  [[nodiscard]] VertexId ToInternal(VertexId original);

  /// Internal id of `original` if it has one; nullopt otherwise.
  [[nodiscard]] std::optional<VertexId> FindInternal(
      VertexId original) const noexcept;

  /// Original id behind `internal`. Throws std::out_of_range when
  /// internal >= size().
  [[nodiscard]] VertexId ToOriginal(VertexId internal) const;

  /// True when every assigned id maps to itself (reporting can skip
  /// the translation).
  [[nodiscard]] bool IsIdentity() const noexcept;

  /// The graph with every vertex renamed to its internal id —
  /// structurally identical (triangle counts invariant), ids permuted.
  /// Every vertex of `g` must already have an internal id (throws
  /// std::invalid_argument otherwise — build the map from this graph,
  /// or grow it first).
  [[nodiscard]] Graph Apply(const Graph& g) const;

  /// internal -> original, dense (the inverse map threaded through
  /// CLI/stream output).
  [[nodiscard]] std::span<const VertexId> old_of_new() const noexcept {
    return old_of_new_;
  }

 private:
  friend std::uint64_t CountValidSlices(const Graph& g,
                                        const VertexRelabeling& map,
                                        std::uint32_t slice_bits);

  static constexpr VertexId kUnassigned = 0xFFFFFFFFu;

  /// new_of_old_ over every vertex of `g`; throws
  /// std::invalid_argument(unmapped_error) if any of them is unmapped.
  [[nodiscard]] std::span<const VertexId> InternalIdsOf(
      const Graph& g, const char* unmapped_error) const;

  std::vector<VertexId> new_of_old_;  // sparse, kUnassigned holes
  std::vector<VertexId> old_of_new_;  // dense
};

/// Builds the DegreeAscending map of `g` and applies it in one call.
/// When `map` is non-null the relabeling is stored there for the
/// caller's inverse lookups (reporting, stream delta mapping).
[[nodiscard]] Graph RelabelByDegree(const Graph& g,
                                    VertexRelabeling* map = nullptr);

/// The load-time relabeling knob (tcim_cli --relabel). kAuto measures
/// every candidate order with CountValidSlices and keeps the cheapest,
/// including identity — graphs whose native ids are already local
/// (community-block generators, pre-ordered inputs) stay untouched
/// instead of being scrambled by a degree sort.
enum class RelabelMode : std::uint8_t { kNone, kDegree, kBfs, kAuto };

[[nodiscard]] std::string_view ToString(RelabelMode m) noexcept;

/// "none" | "degree" | "bfs" | "auto" -> mode; nullopt otherwise.
[[nodiscard]] std::optional<RelabelMode> ParseRelabelMode(
    std::string_view s) noexcept;

/// Exact valid-slice count (row store + column store) the kUpper
/// orientation of `g` would produce after relabeling by `map`, at
/// `slice_bits` bits per slice — computed in O(V + E) from the CSR
/// alone, no stores built. This is the NVS term of the paper's
/// storage formula and the objective kAuto minimizes. Every vertex of
/// `g` must be mapped (throws std::invalid_argument otherwise).
[[nodiscard]] std::uint64_t CountValidSlices(const Graph& g,
                                             const VertexRelabeling& map,
                                             std::uint32_t slice_bits);

/// Outcome of ChooseRelabeling: which order was applied, its map, and
/// the measured valid-slice counts driving (and auditing) the choice.
/// A kNone request scores nothing: both counts read 0.
struct RelabelChoice {
  RelabelMode applied = RelabelMode::kNone;  ///< never kAuto
  VertexRelabeling map;
  std::uint64_t identity_valid_slices = 0;
  std::uint64_t chosen_valid_slices = 0;

  /// chosen / identity valid slices; <= 1.0 under kAuto by
  /// construction, 1.0 when nothing was applied or nothing was scored.
  [[nodiscard]] double ValidSliceRatio() const noexcept {
    return identity_valid_slices == 0
               ? 1.0
               : static_cast<double>(chosen_valid_slices) /
                     static_cast<double>(identity_valid_slices);
  }
};

/// Resolves `requested` against `g`: kAuto scores identity, degree and
/// BFS orders with CountValidSlices and keeps the minimum; kDegree and
/// kBfs are honored unconditionally (identity is still scored, for the
/// ratio). kNone skips every CountValidSlices walk and returns the
/// identity map with both counts 0 (ValidSliceRatio() reads 1.0). The
/// returned map is always usable for inverse lookups.
[[nodiscard]] RelabelChoice ChooseRelabeling(const Graph& g,
                                             RelabelMode requested,
                                             std::uint32_t slice_bits = 64);

}  // namespace tcim::graph
