#include "ingest/ingest.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace lgg::ingest {
namespace {

using graph::Edge;
using graph::Vertex;

// ---- small parallel helpers ------------------------------------------

/// Run fn(i) for every i in [0, n), on the pool when one is given.
template <class Fn>
void for_indices(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  });
}

struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Balanced fixed split of [0, n) into at most `parts` non-empty ranges.
/// Used wherever the pipeline needs per-range scratch: the partition is a
/// pure function of (n, parts), and every consumer merges the per-range
/// results partition-invariantly.
std::vector<Range> split_ranges(std::size_t n, std::size_t parts) {
  parts = std::max<std::size_t>(1, std::min(parts, n));
  std::vector<Range> ranges(n == 0 ? 0 : parts);
  const std::size_t base = parts == 0 ? 0 : n / parts;
  const std::size_t extra = parts == 0 ? 0 : n % parts;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < ranges.size(); ++p) {
    const std::size_t len = base + (p < extra ? 1 : 0);
    ranges[p] = {begin, begin + len};
    begin += len;
  }
  return ranges;
}

std::size_t executor_count(ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->size() + 1;
}

/// Parallel merge sort: sort a power-of-two number of slices on the pool,
/// then pairwise-merge rounds.  The result is the fully sorted array —
/// identical for any slice count as long as `less` never compares two
/// distinct elements equal (every call site sorts duplicate-free keys or
/// fully-equal duplicates).
template <class T, class Less>
void parallel_sort(std::vector<T>& v, ThreadPool* pool, Less less) {
  constexpr std::size_t kSerialCutoff = std::size_t{1} << 14;
  std::size_t parts = 1;
  if (pool != nullptr)
    while (parts < executor_count(pool) * 2 &&
           v.size() / (parts * 2) >= kSerialCutoff)
      parts <<= 1;
  if (parts <= 1) {
    std::sort(v.begin(), v.end(), less);
    return;
  }

  std::vector<std::size_t> bounds(parts + 1);
  for (std::size_t p = 0; p <= parts; ++p) bounds[p] = p * v.size() / parts;
  for_indices(pool, parts, [&](std::size_t p) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(bounds[p]),
              v.begin() + static_cast<std::ptrdiff_t>(bounds[p + 1]), less);
  });

  std::vector<T> buf(v.size());
  while (parts > 1) {
    const std::size_t pairs = parts / 2;
    for_indices(pool, pairs, [&](std::size_t k) {
      std::merge(v.begin() + static_cast<std::ptrdiff_t>(bounds[2 * k]),
                 v.begin() + static_cast<std::ptrdiff_t>(bounds[2 * k + 1]),
                 v.begin() + static_cast<std::ptrdiff_t>(bounds[2 * k + 1]),
                 v.begin() + static_cast<std::ptrdiff_t>(bounds[2 * k + 2]),
                 buf.begin() + static_cast<std::ptrdiff_t>(bounds[2 * k]),
                 less);
    });
    v.swap(buf);
    for (std::size_t k = 0; k <= pairs; ++k) bounds[k] = bounds[2 * k];
    bounds.resize(pairs + 1);
    parts = pairs;
  }
}

// ---- hand-rolled line scanning ---------------------------------------

/// The serial loader's blank/comment probe uses find_first_not_of(" \t\r").
bool is_probe_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// istream >> skips the full C-locale whitespace set ('\n' cannot occur
/// inside a line).
bool is_stream_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Scan an unsigned decimal integer with istringstream>>uint64_t
/// semantics: leading whitespace skipped, optional +/- sign ('-' wraps as
/// unsigned arithmetic, like strtoull), at least one digit, failure on
/// out-of-range.  Advances p past the digits either way.
bool scan_u64(const char*& p, const char* end, std::uint64_t& out) {
  while (p < end && is_stream_space(*p)) ++p;
  bool negative = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negative = (*p == '-');
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  bool overflow = false;
  while (p < end && *p >= '0' && *p <= '9') {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) overflow = true;
    value = value * 10 + digit;
    ++p;
  }
  if (overflow) return false;  // istream sets failbit on range error
  out = negative ? std::uint64_t{0} - value : value;
  return true;
}

// ---- chunked parsing -------------------------------------------------

/// Everything one byte chunk contributes; merged strictly in chunk order,
/// which equals file order because chunks tile the buffer.
struct ChunkParse {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::vector<std::string> comments;
  std::optional<std::uint64_t> declared;  // last "Nodes:" header in chunk
  std::size_t lines = 0;
  std::size_t error_line = 0;  // 1-based within the chunk; 0 = none
  std::string error_text;
};

void parse_chunk(std::string_view chunk, ChunkParse& out) {
  // "u v\n" with two mid-size decimal ids is ~12 bytes; reserving for
  // that density avoids growth copies on the hot path.
  out.edges.reserve(chunk.size() / 12 + 4);
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const line_end = nl != nullptr ? nl : end;
    ++out.lines;

    const char* q = p;
    while (q < line_end && is_probe_blank(*q)) ++q;
    if (q == line_end) {
      // blank line
    } else if (*q == '#') {
      std::string text(q + 1, line_end);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      while (!text.empty() && (text.back() == '\r' || text.back() == ' '))
        text.pop_back();
      // "Nodes: n" header: first whitespace token, then an integer.
      const char* h = text.data();
      const char* const h_end = h + text.size();
      while (h < h_end && is_stream_space(*h)) ++h;
      const char* const token = h;
      while (h < h_end && !is_stream_space(*h)) ++h;
      if (std::string_view(token, static_cast<std::size_t>(h - token)) ==
          "Nodes:") {
        std::uint64_t nodes = 0;
        if (scan_u64(h, h_end, nodes)) out.declared = nodes;
      }
      out.comments.push_back(std::move(text));
    } else {
      const char* r = p;
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (scan_u64(r, line_end, u) && scan_u64(r, line_end, v)) {
        out.edges.emplace_back(u, v);
      } else if (out.error_line == 0) {
        out.error_line = out.lines;
        out.error_text.assign(p, line_end);
      }
    }
    p = nl != nullptr ? nl + 1 : end;
  }
}

/// Tile the buffer into chunks of roughly `target` bytes, each ending on a
/// line boundary (or EOF).  The tiling is a pure function of the buffer
/// and the target — and even that is unobservable: every merge downstream
/// is partition-invariant.
std::vector<std::string_view> split_chunks(std::string_view text,
                                           std::size_t target) {
  std::vector<std::string_view> chunks;
  target = std::max<std::size_t>(1, target);
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = begin + target;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const std::size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return chunks;
}

// ---- sparse-id compaction --------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kBuckets = 64;

struct FirstSeen {
  std::uint64_t raw = 0;
  std::uint64_t pos = 0;  // 2 * edge index + endpoint (u = 0, v = 1)
};

/// Flat-table compaction for the common near-dense SNAP id space: an
/// atomic first-position array indexed by raw id (CAS-min is commutative,
/// so the range decomposition is unobservable) and an O(1) translation
/// table.  Only used when the id universe is small enough that the two
/// flat arrays stay proportional to the input.
void compact_ids_flat(const std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>& raw_edges,
                      std::uint64_t max_raw, ThreadPool* pool,
                      std::vector<std::uint64_t>& original_ids,
                      std::vector<Edge>& dense_edges) {
  const std::size_t m = raw_edges.size();
  const std::size_t universe = static_cast<std::size_t>(max_raw) + 1;
  constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

  std::vector<std::atomic<std::uint64_t>> first_pos(universe);
  for_indices(pool, universe, [&](std::size_t i) {
    first_pos[i].store(kAbsent, std::memory_order_relaxed);
  });
  const auto min_at = [&](std::uint64_t raw, std::uint64_t pos) {
    auto& slot = first_pos[raw];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (pos < cur &&
           !slot.compare_exchange_weak(cur, pos, std::memory_order_relaxed)) {
    }
  };
  const auto edge_ranges = split_ranges(m, executor_count(pool) * 4);
  for_indices(pool, edge_ranges.size(), [&](std::size_t r) {
    for (std::size_t i = edge_ranges[r].begin; i < edge_ranges[r].end; ++i) {
      min_at(raw_edges[i].first, 2 * i);
      min_at(raw_edges[i].second, 2 * i + 1);
    }
  });

  // Gather the present ids, order by first occurrence = first-seen order.
  const auto id_ranges = split_ranges(universe, executor_count(pool) * 4);
  std::vector<std::vector<FirstSeen>> gathered(id_ranges.size());
  for_indices(pool, id_ranges.size(), [&](std::size_t r) {
    for (std::size_t raw = id_ranges[r].begin; raw < id_ranges[r].end; ++raw) {
      const std::uint64_t pos = first_pos[raw].load(std::memory_order_relaxed);
      if (pos != kAbsent) gathered[r].push_back({raw, pos});
    }
  });
  std::vector<FirstSeen> firsts;
  for (const auto& part : gathered) firsts.insert(firsts.end(), part.begin(),
                                                  part.end());
  gathered.clear();
  gathered.shrink_to_fit();
  parallel_sort(firsts, pool, [](const FirstSeen& a, const FirstSeen& b) {
    return a.pos < b.pos;
  });

  const std::size_t n = firsts.size();
  original_ids.resize(n);
  // Reuse first_pos as the raw -> dense translation table (only present
  // ids are ever looked up).
  for_indices(pool, n, [&](std::size_t i) {
    original_ids[i] = firsts[i].raw;
    first_pos[firsts[i].raw].store(i, std::memory_order_relaxed);
  });

  dense_edges.resize(m);
  for_indices(pool, edge_ranges.size(), [&](std::size_t r) {
    for (std::size_t i = edge_ranges[r].begin; i < edge_ranges[r].end; ++i)
      dense_edges[i] = {
          static_cast<Vertex>(first_pos[raw_edges[i].first].load(
              std::memory_order_relaxed)),
          static_cast<Vertex>(first_pos[raw_edges[i].second].load(
              std::memory_order_relaxed))};
  });
}

/// Hash-bucketed compaction for genuinely sparse id universes (raw ids far
/// larger than the edge count): per-range first-occurrence maps, a
/// min-combine per hash bucket, and binary-search translation.
void compact_ids_hashed(const std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>& raw_edges,
                        ThreadPool* pool,
                        std::vector<std::uint64_t>& original_ids,
                        std::vector<Edge>& dense_edges) {
  const std::size_t m = raw_edges.size();
  const auto ranges = split_ranges(m, executor_count(pool) * 4);

  // Per-range first occurrence, scattered into id-hash buckets.
  std::vector<std::array<std::vector<FirstSeen>, kBuckets>> scattered(
      ranges.size());
  for_indices(pool, ranges.size(), [&](std::size_t r) {
    std::unordered_map<std::uint64_t, std::uint64_t> local;
    local.reserve((ranges[r].end - ranges[r].begin) / 2 + 8);
    for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
      // Positions increase through the scan, so try_emplace keeps the min.
      local.try_emplace(raw_edges[i].first, 2 * i);
      local.try_emplace(raw_edges[i].second, 2 * i + 1);
    }
    for (const auto& [raw, pos] : local)
      scattered[r][splitmix64(raw) & (kBuckets - 1)].push_back({raw, pos});
  });

  // Min-combine each bucket across ranges (partition-invariant).
  std::array<std::vector<FirstSeen>, kBuckets> bucket_firsts;
  for_indices(pool, kBuckets, [&](std::size_t k) {
    std::unordered_map<std::uint64_t, std::uint64_t> merged;
    for (const auto& per_range : scattered)
      for (const auto& entry : per_range[k]) {
        auto [it, inserted] = merged.try_emplace(entry.raw, entry.pos);
        if (!inserted) it->second = std::min(it->second, entry.pos);
      }
    bucket_firsts[k].reserve(merged.size());
    for (const auto& [raw, pos] : merged) bucket_firsts[k].push_back({raw, pos});
  });
  scattered.clear();
  scattered.shrink_to_fit();

  // Gather and order by first occurrence: that *is* first-seen order.
  std::vector<std::size_t> offsets(kBuckets + 1, 0);
  for (std::size_t k = 0; k < kBuckets; ++k)
    offsets[k + 1] = offsets[k] + bucket_firsts[k].size();
  std::vector<FirstSeen> firsts(offsets[kBuckets]);
  for_indices(pool, kBuckets, [&](std::size_t k) {
    std::copy(bucket_firsts[k].begin(), bucket_firsts[k].end(),
              firsts.begin() + static_cast<std::ptrdiff_t>(offsets[k]));
  });
  parallel_sort(firsts, pool, [](const FirstSeen& a, const FirstSeen& b) {
    return a.pos < b.pos;
  });

  const std::size_t n = firsts.size();
  original_ids.resize(n);
  for_indices(pool, n, [&](std::size_t i) { original_ids[i] = firsts[i].raw; });

  // Translation table sorted by raw id; lookups are binary searches over
  // distinct keys, safe to run concurrently.
  std::vector<std::pair<std::uint64_t, Vertex>> lut(n);
  for_indices(pool, n, [&](std::size_t i) {
    lut[i] = {firsts[i].raw, static_cast<Vertex>(i)};
  });
  parallel_sort(lut, pool, [](const auto& a, const auto& b) {
    return a.first < b.first;
  });

  dense_edges.resize(m);
  const auto dense_of = [&lut](std::uint64_t raw) {
    const auto it = std::lower_bound(
        lut.begin(), lut.end(), raw,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    return it->second;
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < m; ++i)
      dense_edges[i] = {dense_of(raw_edges[i].first),
                        dense_of(raw_edges[i].second)};
  } else {
    pool->parallel_for(
        m,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            dense_edges[i] = {dense_of(raw_edges[i].first),
                              dense_of(raw_edges[i].second)};
        },
        1024);
  }
}

/// Compact sparse raw ids to dense first-seen-order ids.  Produces the
/// exact id assignment of the serial loader: dense id = rank of the id's
/// first occurrence position in (edge index, endpoint) order.  Both
/// strategies below satisfy the same contract; the choice is a pure
/// function of the input, never of the thread count.
void compact_ids(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                     raw_edges,
                 ThreadPool* pool, std::vector<std::uint64_t>& original_ids,
                 std::vector<Edge>& dense_edges) {
  const std::size_t m = raw_edges.size();
  const auto ranges = split_ranges(m, executor_count(pool) * 4);
  std::vector<std::uint64_t> range_max(ranges.size(), 0);
  for_indices(pool, ranges.size(), [&](std::size_t r) {
    std::uint64_t top = 0;
    for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i)
      top = std::max({top, raw_edges[i].first, raw_edges[i].second});
    range_max[r] = top;
  });
  std::uint64_t max_raw = 0;
  for (const std::uint64_t top : range_max) max_raw = std::max(max_raw, top);

  // SNAP files almost always number vertices near-densely: the flat
  // tables (16 bytes per universe slot) win big as long as the universe
  // stays proportional to the edge list.
  const std::uint64_t budget =
      std::max<std::uint64_t>(std::uint64_t{1} << 16, std::uint64_t{8} * m);
  if (m == 0 || max_raw < budget)
    compact_ids_flat(raw_edges, max_raw, pool, original_ids, dense_edges);
  else
    compact_ids_hashed(raw_edges, pool, original_ids, dense_edges);
}

// ---- parallel CSR build ----------------------------------------------

graph::Graph build_csr_impl(std::size_t n, std::span<const Edge> edges,
                            ThreadPool* pool, IngestStats* stats) {
  const std::size_t m = edges.size();
  const auto ranges = split_ranges(m, executor_count(pool) * 4);

  // Pass 1 over the raw edges: validate endpoints, count self-loops and
  // histogram the min endpoint of every surviving edge (the counting-sort
  // key below).  The first out-of-range edge — in input order, to match
  // Graph::from_edges exactly — wins the error.  Relaxed atomic counts
  // are commutative sums, so the range decomposition is unobservable.
  std::vector<std::atomic<std::uint64_t>> counts(n);
  // Explicit zeroing: pre-C++20 libstdc++ default-constructs atomics
  // uninitialised, and the re-store is cheap next to the histogram.
  for_indices(pool, n,
              [&](std::size_t v) { counts[v].store(0, std::memory_order_relaxed); });
  std::vector<std::size_t> loops(ranges.size(), 0);
  std::vector<std::size_t> first_bad(ranges.size(), m);
  for_indices(pool, ranges.size(), [&](std::size_t r) {
    for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
      const auto& [a, b] = edges[i];
      if (a >= n || b >= n) {
        if (first_bad[r] == m) first_bad[r] = i;
      } else if (a == b) {
        ++loops[r];
      } else {
        counts[std::min(a, b)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::size_t bad = m;
  for (const std::size_t i : first_bad) bad = std::min(bad, i);
  if (bad != m) {
    const auto& [a, b] = edges[bad];
    LGG_THROW("edge (" << a << "," << b << ") out of range for n=" << n);
  }
  if (stats != nullptr) {
    for (const std::size_t c : loops) stats->self_loops += c;
  }

  // Counting sort by min endpoint: scatter the max endpoint into its
  // bucket (claim order — canonicalised by the per-bucket sort), then
  // sort + dedup each bucket in place.  This replaces a global
  // O(m log m) comparison sort with an O(m) scatter plus tiny per-bucket
  // sorts, and the surviving half-adjacency is a pure function of the
  // edge *set*.
  std::vector<std::uint64_t> half_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    half_off[v + 1] = half_off[v] + counts[v].load(std::memory_order_relaxed);
  for_indices(pool, n, [&](std::size_t v) {
    counts[v].store(half_off[v], std::memory_order_relaxed);
  });
  std::vector<Vertex> half(half_off[n]);
  for_indices(pool, ranges.size(), [&](std::size_t r) {
    for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
      const auto& [a, b] = edges[i];
      if (a >= n || b >= n || a == b) continue;
      half[counts[std::min(a, b)].fetch_add(1, std::memory_order_relaxed)] =
          std::max(a, b);
    }
  });

  // Per-bucket sort + dedup; kept[u] survivors stay at the bucket front.
  // Dynamic claiming: bucket sizes are badly skewed on power-law degree
  // distributions.
  std::vector<std::uint64_t> kept(n, 0);
  const auto dedup_buckets = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      const auto begin = half.begin() + static_cast<std::ptrdiff_t>(half_off[u]);
      const auto end =
          half.begin() + static_cast<std::ptrdiff_t>(half_off[u + 1]);
      std::sort(begin, end);
      kept[u] = static_cast<std::uint64_t>(std::unique(begin, end) - begin);
    }
  };
  if (pool == nullptr)
    dedup_buckets(0, n);
  else
    pool->parallel_for_dynamic(n, dedup_buckets, 64, 16);
  std::uint64_t kept_total = 0;
  for (std::size_t u = 0; u < n; ++u) kept_total += kept[u];
  if (stats != nullptr)
    stats->duplicate_edges += half_off[n] - kept_total;

  // Degrees: the kept bucket of u contributes deg(u) on the low side and
  // one incoming arc per surviving (u, v) on the high side.
  for_indices(pool, n,
              [&](std::size_t v) { counts[v].store(0, std::memory_order_relaxed); });
  const auto bucket_ranges = split_ranges(n, executor_count(pool) * 4);
  for_indices(pool, bucket_ranges.size(), [&](std::size_t r) {
    for (std::size_t u = bucket_ranges[r].begin; u < bucket_ranges[r].end; ++u)
      for (std::uint64_t k = 0; k < kept[u]; ++k)
        counts[half[half_off[u] + k]].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    offsets[v + 1] = offsets[v] + kept[v] +
                     counts[v].load(std::memory_order_relaxed);

  // Adjacency fill, sorted by construction: every neighbour below v sorts
  // before every one above it, so v's slice is its low side (each u < v
  // whose bucket holds v) followed by v's own deduped bucket, which is
  // already sorted and all above v.  Each range [lo, hi) of destinations
  // scans the buckets in ascending u: it copies the buckets of its own
  // vertices into place and appends u to the low side of every v in
  // [lo, hi) the bucket holds, through cursors only that range touches.
  // So every low side comes out ascending — no atomics, no contended hub
  // cache lines, no final sort.  One range per executor: every range
  // rescans the buckets below its end, so more ranges only add scanning.
  std::vector<Vertex> adjacency(2 * kept_total);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  const auto dest_ranges = split_ranges(n, executor_count(pool));
  for_indices(pool, dest_ranges.size(), [&](std::size_t r) {
    const auto [lo, hi] = dest_ranges[r];
    for (std::size_t u = 0; u < hi; ++u) {
      const Vertex* first = half.data() + half_off[u];
      const Vertex* end = first + kept[u];
      if (u >= lo)
        std::copy(first, end,
                  adjacency.begin() +
                      static_cast<std::ptrdiff_t>(offsets[u + 1] - kept[u]));
      for (const Vertex* it =
               std::lower_bound(first, end, static_cast<Vertex>(lo));
           it != end && *it < hi; ++it)
        adjacency[cursor[*it]++] = static_cast<Vertex>(u);
    }
  });

  return graph::Graph::from_csr(n, std::move(offsets), std::move(adjacency));
}

IngestResult run_pipeline(std::string_view text, const IngestOptions& opts,
                          ThreadPool* pool) {
  IngestResult result;
  IngestStats& st = result.stats;
  graph::LoadedGraph& loaded = result.loaded;
  Stopwatch total;
  obs::Scope root(opts.obs, "ingest/load", "ingest");
  st.bytes = text.size();
  st.threads = executor_count(pool);

  // ---- parse ----
  Stopwatch phase;
  // Shrink the chunk target so small files still fan out, but never grow
  // past the requested size (tests pin boundary behaviour with tiny
  // chunks).
  const std::size_t adaptive = std::max<std::size_t>(
      4096, text.size() / (executor_count(pool) * 4 + 1));
  const std::size_t target = std::min(std::max<std::size_t>(1, opts.chunk_bytes),
                                      adaptive);
  const auto chunks = split_chunks(text, target);
  st.chunks = chunks.size();
  std::vector<ChunkParse> parsed(chunks.size());
  {
    obs::Scope span(opts.obs, "ingest/parse", "ingest");
    for_indices(pool, chunks.size(),
                [&](std::size_t c) { parse_chunk(chunks[c], parsed[c]); });
  }

  // Deterministic chunk merge (chunk order = file order).
  std::size_t lines_before = 0;
  for (const ChunkParse& c : parsed) {
    if (c.error_line != 0)
      LGG_THROW("SNAP edge list: malformed line "
                << lines_before + c.error_line << ": '" << c.error_text
                << "'");
    lines_before += c.lines;
  }
  st.lines = lines_before;
  for (const ChunkParse& c : parsed) {
    st.comment_lines += c.comments.size();
    if (c.declared) loaded.declared_nodes = *c.declared;  // last header wins
  }
  loaded.comments.reserve(st.comment_lines);
  for (ChunkParse& c : parsed)
    for (std::string& comment : c.comments)
      loaded.comments.push_back(std::move(comment));

  std::vector<std::size_t> edge_offsets(parsed.size() + 1, 0);
  for (std::size_t c = 0; c < parsed.size(); ++c)
    edge_offsets[c + 1] = edge_offsets[c] + parsed[c].edges.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw_edges(
      edge_offsets[parsed.size()]);
  for_indices(pool, parsed.size(), [&](std::size_t c) {
    std::copy(parsed[c].edges.begin(), parsed[c].edges.end(),
              raw_edges.begin() + static_cast<std::ptrdiff_t>(edge_offsets[c]));
  });
  st.edge_lines = raw_edges.size();
  parsed.clear();
  parsed.shrink_to_fit();
  st.parse_s = phase.elapsed_s();

  // ---- compact ----
  phase.reset();
  std::vector<Edge> dense_edges;
  {
    obs::Scope span(opts.obs, "ingest/compact", "ingest");
    compact_ids(raw_edges, pool, loaded.original_ids, dense_edges);
    if (span) span.arg("vertices", std::uint64_t{loaded.original_ids.size()});
  }
  raw_edges.clear();
  raw_edges.shrink_to_fit();
  st.distinct_vertices = loaded.original_ids.size();
  st.compact_s = phase.elapsed_s();

  // ---- build ----
  phase.reset();
  std::size_t n = loaded.original_ids.size();
  if (opts.pad_to_declared_nodes && loaded.declared_nodes)
    n = std::max(n, static_cast<std::size_t>(*loaded.declared_nodes));
  {
    obs::Scope span(opts.obs, "ingest/build", "ingest");
    loaded.graph = build_csr_impl(n, dense_edges, pool, &st);
  }
  st.build_s = phase.elapsed_s();
  st.total_s = total.elapsed_s();

  if (root) {
    root.arg("bytes", std::uint64_t{st.bytes});
    root.arg("lines", std::uint64_t{st.lines});
    root.arg("edges", std::uint64_t{st.edge_lines});
    root.arg("vertices", std::uint64_t{st.distinct_vertices});
  }
  if (opts.obs != nullptr) {
    // Only partition-invariant quantities: exported metrics must stay
    // byte-identical across thread counts (chunk count is not).
    obs::Metrics& mx = opts.obs->metrics;
    mx.count("lgg_ingest_loads_total");
    mx.count("lgg_ingest_bytes_total", st.bytes);
    mx.count("lgg_ingest_lines_total", st.lines);
    mx.count("lgg_ingest_edge_lines_total", st.edge_lines);
    mx.count("lgg_ingest_comment_lines_total", st.comment_lines);
    mx.count("lgg_ingest_vertices_total", st.distinct_vertices);
    mx.count("lgg_ingest_duplicate_edges_total", st.duplicate_edges);
    mx.count("lgg_ingest_self_loops_total", st.self_loops);
  }
  return result;
}

}  // namespace

IngestResult load_snap_buffer(std::string_view text,
                              const IngestOptions& opts) {
  if (opts.threads == 1) return run_pipeline(text, opts, nullptr);
  if (opts.threads == 0)
    return run_pipeline(text, opts, &ThreadPool::shared());
  ThreadPool pool(opts.threads);
  return run_pipeline(text, opts, &pool);
}

IngestResult load_snap_file(const std::string& path,
                            const IngestOptions& opts) {
  Stopwatch read;
  std::ifstream in(path, std::ios::binary);
  LGG_CHECK(in.good(), "cannot open graph file: " << path);
  std::string buffer;
  if (in.seekg(0, std::ios::end); in.good()) {
    const auto size = in.tellg();
    in.seekg(0, std::ios::beg);
    if (size > 0) buffer.reserve(static_cast<std::size_t>(size));
  }
  in.clear();
  // Large-block reads: no per-line stream machinery on the ingest path.
  constexpr std::size_t kBlock = 16u << 20;
  std::string block(kBlock, '\0');
  while (in.read(block.data(), static_cast<std::streamsize>(kBlock)) ||
         in.gcount() > 0)
    buffer.append(block.data(), static_cast<std::size_t>(in.gcount()));
  const double read_s = read.elapsed_s();

  IngestResult result = load_snap_buffer(buffer, opts);
  result.stats.read_s = read_s;
  result.stats.total_s += read_s;
  return result;
}

graph::Graph build_csr_parallel(std::size_t n, std::span<const Edge> edges,
                                ThreadPool* pool) {
  return build_csr_impl(n, edges, pool, nullptr);
}

}  // namespace lgg::ingest
