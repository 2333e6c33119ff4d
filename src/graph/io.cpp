#include "graph/io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace tcim::graph {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("graph::io: " + what);
}

}  // namespace

Graph ReadSnapEdgeList(std::istream& in) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw_edges;
  std::unordered_map<std::uint64_t, VertexId> remap;
  std::string line;
  std::uint64_t line_no = 0;
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#' || line[first] == '%') continue;
    const char* p = line.c_str() + first;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(p, &end, 10);
    if (end == p) Fail("unparsable line " + std::to_string(line_no));
    // A token must end at whitespace or end-of-line: "2garbage" parsing
    // as 2 would silently corrupt the edge list.
    if (*end != '\0' && !is_space(*end)) {
      Fail("trailing junk after first id on line " + std::to_string(line_no));
    }
    p = end;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) Fail("missing second id on line " + std::to_string(line_no));
    if (*end != '\0' && !is_space(*end)) {
      Fail("trailing junk after second id on line " + std::to_string(line_no));
    }
    // SNAP files may carry extra columns (temporal edge lists'
    // timestamps, weighted lists' real-valued weights): accept
    // additional *numeric* tokens — integer or floating-point — and
    // reject anything else so junk cannot ride along unnoticed.
    p = end;
    for (;;) {
      while (is_space(*p)) ++p;
      if (*p == '\0') break;
      (void)std::strtod(p, &end);
      if (end == p || (*end != '\0' && !is_space(*end))) {
        Fail("trailing junk on line " + std::to_string(line_no));
      }
      p = end;
    }
    raw_edges.emplace_back(u, v);
    remap.try_emplace(u, 0);
    remap.try_emplace(v, 0);
  }

  // Dense relabeling in first-appearance order of the *sorted* id set
  // keeps the mapping deterministic regardless of edge order.
  std::vector<std::uint64_t> ids;
  ids.reserve(remap.size());
  for (const auto& [id, _] : remap) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (VertexId dense = 0; dense < ids.size(); ++dense) {
    remap[ids[dense]] = dense;
  }

  GraphBuilder builder(static_cast<VertexId>(ids.size()));
  builder.ReserveEdges(raw_edges.size());
  for (const auto& [u, v] : raw_edges) {
    builder.AddEdge(remap[u], remap[v]);
  }
  return std::move(builder).Build();
}

Graph ReadSnapEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot open " + path);
  return ReadSnapEdgeList(in);
}

void WriteSnapEdgeList(const Graph& g, std::ostream& out) {
  out << "# Undirected graph, " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  out << "# FromNodeId\tToNodeId\n";
  g.ForEachEdge([&](VertexId u, VertexId v) { out << u << '\t' << v << '\n'; });
}

}  // namespace tcim::graph
