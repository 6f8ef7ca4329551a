#include "resilience/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "graph/digest.hpp"
#include "util/fnv1a.hpp"
#include "util/parse.hpp"

namespace lgg::resilience {

namespace {

constexpr CheckpointFormat kRunnerFormat{"lggckpt", 1, "checkpoint"};

/// The trailer's separator from the body; rfind locates the trailer.
constexpr std::string_view kTrailer = "\ndigest ";

constexpr bool is_ws(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

/// Value of a lowercase hex digit, -1 for any other byte.
constexpr int hex_digit(char c) {
  return c >= '0' && c <= '9'   ? c - '0'
         : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                : -1;
}

std::uint64_t fnv1a(std::string_view bytes) {
  util::Fnv1a h;
  h.bytes(bytes);
  return h.value();
}

}  // namespace

const char* checkpoint_kind_name(CheckpointError::Kind k) noexcept {
  switch (k) {
    case CheckpointError::Kind::kMissing:
      return "missing";
    case CheckpointError::Kind::kCorrupt:
      return "corrupt";
    case CheckpointError::Kind::kVersion:
      return "version";
    case CheckpointError::Kind::kGraphMismatch:
      return "graph-mismatch";
    case CheckpointError::Kind::kPlanMismatch:
      return "plan-mismatch";
  }
  return "?";
}

// ------------------------------------------------------------------ writer

CheckpointWriter::CheckpointWriter(const CheckpointFormat& format)
    : body_(format.magic) {
  put(format.version);
}

CheckpointWriter& CheckpointWriter::hex(std::uint64_t v) {
  body_ += ' ';
  body_ += graph::digest_hex(v);
  return *this;
}

/// Percent-encode into one whitespace-free token ('%', ' ', control bytes
/// escaped; the empty string encodes as "%-").
void CheckpointWriter::field(std::string_view s) {
  body_ += ' ';
  if (s.empty()) {
    body_ += "%-";
    return;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (b == '%' || b == ' ' || b < 0x20 || b == 0x7F) {
      body_ += '%';
      body_ += kHex[b >> 4];
      body_ += kHex[b & 0xF];
    } else {
      body_ += c;
    }
  }
}

std::string CheckpointWriter::seal() && {
  body_ += '\n';
  return seal_checkpoint(std::move(body_));
}

// ------------------------------------------------------------------ reader

CheckpointReader::CheckpointReader(std::string_view body,
                                   std::string_view name)
    : text_(body), name_(name) {
  for (std::size_t i = 0; i < text_.size(); ++i)
    left_ += !is_ws(text_[i]) && (i == 0 || is_ws(text_[i - 1]));
}

void CheckpointReader::corrupt(const std::string& why) const {
  throw CheckpointError(CheckpointError::Kind::kCorrupt,
                        std::string(name_) + ": " + why);
}

std::string_view CheckpointReader::tok() {
  if (left_ == 0) corrupt("truncated");
  while (is_ws(text_[pos_])) ++pos_;
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !is_ws(text_[pos_])) ++pos_;
  --left_;
  return text_.substr(start, pos_ - start);
}

void CheckpointReader::expect(std::string_view kw) {
  const std::string_view t = tok();
  if (t != kw)
    corrupt("expected '" + std::string(kw) + "', got '" + std::string(t) +
            "'");
}

std::uint64_t CheckpointReader::u64() {
  const std::string_view t = tok();
  const auto v = util::parse_u64(t);
  if (!v) corrupt("bad integer '" + std::string(t) + "'");
  return *v;
}

std::uint64_t CheckpointReader::count() {
  const std::uint64_t n = u64();
  if (n > left_)
    corrupt("count " + std::to_string(n) + " exceeds the " +
            std::to_string(left_) + " tokens left");
  return n;
}

std::uint64_t CheckpointReader::hex() {
  const std::string_view t = tok();
  if (t.empty() || t.size() > 16) corrupt("bad hex '" + std::string(t) + "'");
  std::uint64_t v = 0;
  for (const char c : t) {
    const int d = hex_digit(c);
    if (d < 0) corrupt("bad hex '" + std::string(t) + "'");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

void CheckpointReader::field(std::string& s) {
  const std::string_view t = tok();
  s.clear();
  if (t == "%-") return;
  s.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] != '%') {
      s += t[i];
      continue;
    }
    if (i + 2 >= t.size()) corrupt("dangling escape in string token");
    const int hi = hex_digit(t[i + 1]);
    const int lo = hex_digit(t[i + 2]);
    if (hi < 0 || lo < 0) corrupt("bad escape in string token");
    s += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
}

// ---------------------------------------------------------------- envelope

std::string seal_checkpoint(std::string body) {
  const std::uint64_t digest = fnv1a(body);
  body += kTrailer.substr(1);
  body += graph::digest_hex(digest);
  body += '\n';
  return body;
}

CheckpointReader open_checkpoint(std::string_view text,
                                 const CheckpointFormat& format) {
  // Digest trailer first: reject truncation/tampering before parsing.
  const std::size_t at = text.rfind(kTrailer);
  CheckpointReader trailer(
      at == std::string_view::npos ? std::string_view{} : text.substr(at + 1),
      format.name);
  if (at == std::string_view::npos) trailer.corrupt("missing digest trailer");
  trailer.expect("digest");
  const std::uint64_t want = trailer.hex();
  if (!trailer.done()) trailer.corrupt("trailing bytes after digest");
  const std::string_view body = text.substr(0, at + 1);
  if (fnv1a(body) != want) trailer.corrupt("digest mismatch");

  CheckpointReader r(body, format.name);
  std::string magic;
  r.get(magic);
  if (magic != format.magic)
    throw CheckpointError(CheckpointError::Kind::kVersion,
                          std::string(format.name) + ": bad magic '" +
                              magic + "'");
  std::uint64_t version = 0;
  r.get(version);
  if (version != format.version)
    throw CheckpointError(CheckpointError::Kind::kVersion,
                          std::string(format.name) + ": format version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(format.version) + ")");
  return r;
}

std::string read_checkpoint_file(const std::string& path,
                                 const CheckpointFormat& format) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw CheckpointError(CheckpointError::Kind::kMissing,
                          std::string(format.name) + ": no file at " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  LGG_CHECK(in.good() || in.eof(), "I/O error reading " << path);
  return std::move(buf).str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    LGG_CHECK(out.good(), "cannot open temp file for write: " << tmp);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    LGG_CHECK(out.good(), "short write to temp file: " << tmp);
  }
  LGG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot rename " << tmp << " into place at " << path);
}

// ------------------------------------------------------------- fault state

void write_fault_state(CheckpointWriter& w, const FaultInjector::State& s) {
  w.put(s.draws, s.counts, s.replay_cursor, s.events.size());
  for (const FaultEvent& e : s.events)
    w.line("fe", static_cast<std::uint64_t>(e.site), e.draw, e.detail);
}

FaultInjector::State read_fault_state(CheckpointReader& r) {
  FaultInjector::State s;
  r.get(s.draws, s.counts, s.replay_cursor);
  s.events.resize(r.count());
  for (FaultEvent& e : s.events) {
    std::uint64_t site = 0;
    r.line("fe", site, e.draw, e.detail);
    if (site >= gpusim::kNumFaultSites) r.corrupt("bad fault site");
    e.site = static_cast<gpusim::FaultSite>(site);
  }
  return s;
}

// ------------------------------------------------------- runner checkpoint

std::uint64_t runner_options_fingerprint(const RunnerOptions& opts,
                                         const gpusim::DeviceSpec& dev) {
  util::Fnv1a h;
  h.u64(static_cast<std::uint64_t>(opts.metric));
  h.u64(opts.threads_per_block);
  h.u64(static_cast<std::uint64_t>(opts.scheduler));
  h.u64(static_cast<std::uint64_t>(opts.sancheck));
  h.u64(static_cast<std::uint64_t>(opts.failover));
  h.u64(opts.retry.max_retries);
  h.u64(std::bit_cast<std::uint64_t>(opts.retry.base_backoff_s));
  h.u64(std::bit_cast<std::uint64_t>(opts.retry.max_backoff_s));
  h.u64(opts.verify ? 1 : 0);
  h.u64(opts.salvage ? 1 : 0);
  h.u64(opts.stream_batch_tests);
  h.u64(opts.checkpoint_every_chunks);
  h.u64(opts.faults != nullptr ? 1 : 0);
  if (opts.faults != nullptr) {
    h.u64(opts.faults->seed());
    const FaultRates& r = opts.faults->rates();
    h.u64(std::bit_cast<std::uint64_t>(r.alloc));
    h.u64(std::bit_cast<std::uint64_t>(r.launch));
    h.u64(std::bit_cast<std::uint64_t>(r.sm_abort));
    h.u64(std::bit_cast<std::uint64_t>(r.transfer));
  }
  h.u64(opts.obs != nullptr ? 1 : 0);
  h.u64(dev.sm_count);
  h.u64(dev.shared_mem_bits());
  return h.value();
}

std::uint64_t plan_digest_of(const std::vector<std::uint64_t>& chunk_tests) {
  util::Fnv1a h;
  h.u64(chunk_tests.size());
  for (const std::uint64_t t : chunk_tests) h.u64(t);
  return h.value();
}

std::string encode_checkpoint(const Checkpoint& c) {
  CheckpointWriter w(kRunnerFormat);
  w.line("graph").hex(c.graph_digest);
  w.line("fp").hex(c.options_fp);
  w.line("plan").hex(c.plan_digest).put(c.n_chunks);
  w.line("pos", c.next_chunk);
  w.line("acc", c.triangles, c.exact, c.total_tests, c.host_time_s,
         c.camping_sum, c.tps_sum);
  w.line("dev", c.dev_kernels, c.dev_transactions, c.dev_kernel_time_s,
         c.h2d_bytes, c.h2d_time_s);
  const RecoveryStats& st = c.recovery;
  w.line("rec", st.faults, st.by_site, st.retries, st.corruptions_detected,
         st.cpu_failovers, st.stream_failovers, st.failed_chunks,
         st.backoff_s, st.salvaged_warps, st.salvaged_tests,
         st.recounted_tests);
  w.line("chunks", c.chunks.size());
  for (const ChunkRecord& r : c.chunks)
    w.line("c", r.chunk, r.tests, r.triangles, r.shared_resident,
           static_cast<std::uint64_t>(r.outcome), r.attempts, r.faults,
           r.corruptions, r.certified, r.backoff_s, r.time_s, r.sm,
           r.salvaged_warps, r.salvaged_tests, r.recounted_tests);
  w.line("sml", c.sm_lost);
  w.line("job", c.job_times_ns);
  w.line("log", c.log);
  w.line("fau", c.has_faults);
  if (c.has_faults) write_fault_state(w.put(c.fault_seed), c.faults);
  w.line("obs", c.has_obs);
  if (c.has_obs) {
    const obs::TracerState& t = c.tracer;
    w.line("trc", t.spans.size(), t.open.size(), t.top_cursor, t.dropped);
    for (const obs::Span& s : t.spans) {
      w.line("sp", s.name, s.cat, s.begin_ns, s.end_ns,
             static_cast<std::uint64_t>(s.parent + 1), s.args.size());
      for (const obs::SpanArg& a : s.args) w.put(a.key, a.json);
    }
    for (const auto& [idx, cursor] : t.open) w.line("of", idx, cursor);
    const obs::MetricsState& m = c.metrics;
    w.line("met", m.counters.size(), m.counters_f.size(), m.gauges.size(),
           m.histograms.size(), m.help.size());
    for (const auto& [k, v] : m.counters) w.line("mc", k, v);
    for (const auto& [k, v] : m.counters_f) w.line("mf", k, v);
    for (const auto& [k, v] : m.gauges) w.line("mg", k, v);
    for (const auto& [k, h] : m.histograms)
      w.line("mh", k, h.bounds, h.count, h.observations, h.sum);
    for (const auto& [k, v] : m.help) w.line("mp", k, v);
  }
  return std::move(w).seal();
}

Checkpoint decode_checkpoint(std::string_view text) {
  CheckpointReader r = open_checkpoint(text, kRunnerFormat);
  Checkpoint c;
  r.expect("graph");
  c.graph_digest = r.hex();
  r.expect("fp");
  c.options_fp = r.hex();
  r.expect("plan");
  c.plan_digest = r.hex();
  r.get(c.n_chunks);
  r.line("pos", c.next_chunk);
  r.line("acc", c.triangles, c.exact, c.total_tests, c.host_time_s,
         c.camping_sum, c.tps_sum);
  r.line("dev", c.dev_kernels, c.dev_transactions, c.dev_kernel_time_s,
         c.h2d_bytes, c.h2d_time_s);
  RecoveryStats& st = c.recovery;
  r.line("rec", st.faults, st.by_site, st.retries, st.corruptions_detected,
         st.cpu_failovers, st.stream_failovers, st.failed_chunks,
         st.backoff_s, st.salvaged_warps, st.salvaged_tests,
         st.recounted_tests);
  r.expect("chunks");
  const std::uint64_t n_records = r.count();
  if (n_records > c.n_chunks) r.corrupt("more chunk records than chunks");
  c.chunks.resize(n_records);
  for (ChunkRecord& rec : c.chunks) {
    std::uint64_t outcome = 0;
    r.line("c", rec.chunk, rec.tests, rec.triangles, rec.shared_resident,
           outcome, rec.attempts, rec.faults, rec.corruptions, rec.certified,
           rec.backoff_s, rec.time_s, rec.sm, rec.salvaged_warps,
           rec.salvaged_tests, rec.recounted_tests);
    if (outcome > static_cast<std::uint64_t>(ChunkOutcome::kSalvaged))
      r.corrupt("bad chunk outcome");
    rec.outcome = static_cast<ChunkOutcome>(outcome);
  }
  r.line("sml", c.sm_lost);
  r.line("job", c.job_times_ns);
  r.line("log", c.log);
  r.line("fau", c.has_faults);
  if (c.has_faults) {
    r.get(c.fault_seed);
    c.faults = read_fault_state(r);
  }
  r.line("obs", c.has_obs);
  if (c.has_obs) {
    obs::TracerState& t = c.tracer;
    r.expect("trc");
    t.spans.resize(r.count());
    t.open.resize(r.count());
    r.get(t.top_cursor, t.dropped);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      obs::Span& s = t.spans[i];
      std::uint64_t parent = 0;
      r.line("sp", s.name, s.cat, s.begin_ns, s.end_ns, parent);
      if (parent > i) r.corrupt("span parent out of range");
      s.parent = static_cast<std::int64_t>(parent) - 1;
      s.args.resize(r.count());
      for (obs::SpanArg& a : s.args) r.get(a.key, a.json);
    }
    for (auto& [idx, cursor] : t.open) {
      r.line("of", idx, cursor);
      if (idx >= t.spans.size() && idx != obs::Tracer::kDropped)
        r.corrupt("open frame index out of range");
    }
    obs::MetricsState& m = c.metrics;
    r.expect("met");
    const std::uint64_t n_counters = r.count();
    const std::uint64_t n_counters_f = r.count();
    const std::uint64_t n_gauges = r.count();
    const std::uint64_t n_histograms = r.count();
    const std::uint64_t n_help = r.count();
    // n lines "kw <key> <value>" into `map`; a repeated key keeps the last.
    const auto entries = [&r](std::string_view kw, std::uint64_t n,
                              auto& map) {
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string k;
        typename std::remove_reference_t<decltype(map)>::mapped_type v{};
        r.line(kw, k, v);
        map.insert_or_assign(std::move(k), std::move(v));
      }
    };
    entries("mc", n_counters, m.counters);
    entries("mf", n_counters_f, m.counters_f);
    entries("mg", n_gauges, m.gauges);
    for (std::uint64_t i = 0; i < n_histograms; ++i) {
      std::string k;
      obs::Histogram h;
      r.line("mh", k, h.bounds, h.count, h.observations, h.sum);
      m.histograms.insert_or_assign(std::move(k), std::move(h));
    }
    entries("mp", n_help, m.help);
  }
  if (!r.done()) r.corrupt("trailing data after checkpoint body");
  return c;
}

void save_checkpoint(const std::string& path, const Checkpoint& c) {
  write_file_atomic(path, encode_checkpoint(c));
}

Checkpoint load_checkpoint(const std::string& path) {
  return decode_checkpoint(read_checkpoint_file(path, kRunnerFormat));
}

}  // namespace lgg::resilience
