#include "graph/digest.hpp"

#include <array>
#include <bit>
#include <cstddef>

namespace lgg::graph {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// kPrimePowers[k] = kFnvPrime^k mod 2^64.
constexpr auto kPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k)
    powers[k] = powers[k - 1] * kFnvPrime;
  return powers;
}();

/// Incremental 64-bit FNV-1a.  Multi-byte integers are folded
/// little-endian at fixed widths so the digest is platform-independent.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }

  /// The 8 little-endian bytes of v.  A zero byte folds as one multiply
  /// by the prime, so the bytes above v's highest non-zero byte fold as
  /// one multiply by a power of it: the same value as folding them one
  /// at a time, without the loop over the widened zeros.
  void u64(std::uint64_t v) {
    const auto used = static_cast<std::size_t>(std::bit_width(v) + 7) / 8;
    for (std::size_t i = 0; i < used; ++i, v >>= 8) {
      hash_ ^= v & 0xff;
      hash_ *= kFnvPrime;
    }
    hash_ *= kPrimePowers[8 - used];
  }

  void u32(std::uint32_t v) { u64(v); }

  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fold_graph(Fnv1a& h, const Graph& g) {
  h.u64(g.num_vertices());
  for (const std::uint64_t o : g.raw_offsets()) h.u64(o);
  for (const Vertex v : g.raw_adjacency()) h.u32(v);
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
