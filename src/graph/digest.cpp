#include "graph/digest.hpp"

#include <cstddef>

#include "util/fnv1a.hpp"

namespace lgg::graph {
namespace {

using util::Fnv1a;

void fold_graph(Fnv1a& h, const Graph& g) {
  h.u64(g.num_vertices());
  for (const std::uint64_t o : g.raw_offsets()) h.u64(o);
  for (const Vertex v : g.raw_adjacency()) h.u64(v);
}

}  // namespace

std::uint64_t graph_digest(const Graph& g) {
  Fnv1a h;
  h.str("lgg-graph-v1");
  fold_graph(h, g);
  return h.value();
}

std::uint64_t loaded_graph_digest(const LoadedGraph& loaded) {
  Fnv1a h;
  h.str("lgg-loaded-v1");
  fold_graph(h, loaded.graph);
  h.u64(loaded.original_ids.size());
  for (const std::uint64_t id : loaded.original_ids) h.u64(id);
  h.u64(loaded.comments.size());
  for (const auto& c : loaded.comments) h.str(c);
  h.u64(loaded.declared_nodes.has_value() ? 1 : 0);
  if (loaded.declared_nodes) h.u64(*loaded.declared_nodes);
  return h.value();
}

std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; digest >>= 4) out[i] = kHex[digest & 0xf];
  return out;
}

}  // namespace lgg::graph
