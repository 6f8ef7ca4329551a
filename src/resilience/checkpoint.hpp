// Durable checkpoint/restart for the resilient runner (DESIGN.md §16).
//
// A Checkpoint freezes everything a resumed process needs to finish a
// chunked run byte-identically to an uninterrupted one: the completed
// ChunkRecords and report accumulators, the deterministic log prefix, the
// fault injector's draw/replay position, and — when the run traces — the
// full observability state (span tree with its open-frame stack, metrics
// registry).  The file is a line-based text format with a version magic
// and an FNV-1a digest trailer; saves go through write-to-temp + rename
// so a crash mid-write leaves the previous checkpoint intact, and loads
// reject any truncation or tampering with a typed CheckpointError.
//
// Compatibility is checked on three axes before any state is restored:
// the graph digest (same input), an options fingerprint (same semantics —
// deliberately EXCLUDING the host ExecPolicy, which is free to vary), and
// a plan digest over the chunk test counts (same Algorithm 1 output).
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/runner.hpp"
#include "util/error.hpp"

namespace lgg::resilience {

/// Typed checkpoint failure: callers branch on kind() to decide between
/// "cold start" (kMissing) and "refuse / warn then cold start" (the rest).
class CheckpointError : public Error {
 public:
  enum class Kind {
    kMissing = 0,        // no checkpoint file at the path
    kCorrupt = 1,        // truncated, tampered, or unparseable
    kVersion = 2,        // magic / format version mismatch
    kGraphMismatch = 3,  // checkpoint was taken for a different graph
    kPlanMismatch = 4,   // options fingerprint or chunk plan differ
  };

  CheckpointError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] const char* checkpoint_kind_name(
    CheckpointError::Kind k) noexcept;

/// Complete mid-run state of run_resilient at a chunk boundary.
struct Checkpoint {
  // -- compatibility preamble --
  std::uint64_t graph_digest = 0;
  std::uint64_t options_fp = 0;
  std::uint64_t plan_digest = 0;
  std::uint64_t n_chunks = 0;

  // -- resume position: first chunk the resumed run executes --
  std::uint64_t next_chunk = 0;

  // -- report accumulators over chunks [0, next_chunk) --
  std::uint64_t triangles = 0;
  bool exact = true;
  std::uint64_t total_tests = 0;
  double host_time_s = 0.0;
  double camping_sum = 0.0;
  double tps_sum = 0.0;
  std::uint64_t dev_kernels = 0;
  std::uint64_t dev_transactions = 0;
  double dev_kernel_time_s = 0.0;
  std::uint64_t h2d_bytes = 0;
  double h2d_time_s = 0.0;
  std::vector<ChunkRecord> chunks;
  RecoveryStats recovery;
  std::vector<std::uint8_t> sm_lost;
  std::vector<std::uint64_t> job_times_ns;
  std::string log;  // deterministic audit-log prefix

  // -- fault injector position (absent when the run is fault-free) --
  bool has_faults = false;
  std::uint64_t fault_seed = 0;
  FaultInjector::State faults;

  // -- observability snapshot (absent when the run has no session) --
  bool has_obs = false;
  obs::TracerState tracer;
  obs::MetricsState metrics;
};

/// Semantic fingerprint of the options a checkpoint depends on.  The host
/// ExecPolicy is excluded on purpose: the runner's outputs are
/// bit-identical across policies, so a run checkpointed at --threads 1
/// may resume at --threads 8.
[[nodiscard]] std::uint64_t runner_options_fingerprint(
    const RunnerOptions& opts, const gpusim::DeviceSpec& dev);

/// FNV-1a over the per-chunk test counts — pins the Algorithm 1 plan.
[[nodiscard]] std::uint64_t plan_digest_of(
    const std::vector<std::uint64_t>& chunk_tests);

/// Serialize / parse the versioned text format.  decode throws
/// CheckpointError (kCorrupt / kVersion); it never partially fills.
[[nodiscard]] std::string encode_checkpoint(const Checkpoint& c);
[[nodiscard]] Checkpoint decode_checkpoint(std::string_view text);

/// Durable save: write to `path + ".tmp"`, fsync-free rename over `path`.
/// Throws lgg::Error on I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& c);

/// Load + digest-verify + parse.  Throws CheckpointError: kMissing when
/// the file does not exist, kCorrupt / kVersion from decode.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

// ---- the checkpoint codec (shared with the serving layer's checkpoint) ----
//
// A checkpoint is a text body of keyword-led lines of space-separated
// tokens, opened by "<magic> <version>" and sealed by a trailer line
// "digest <FNV-1a-64 of the body in hex>".

/// What tells one checkpoint format from another: the first two tokens
/// of its body and the prefix of every error its decoder throws.
struct CheckpointFormat {
  std::string_view magic;
  std::uint64_t version = 0;
  std::string_view name;  // error prefix, e.g. "serve checkpoint"
};

/// Builds a checkpoint body line by line.  Fields are typed: integers
/// (bool as 0/1) in decimal, doubles as their bit pattern in hex, strings
/// percent-encoded, a std::array as its elements, a std::vector as its
/// size then its elements.  CheckpointReader reads the same lists back.
class CheckpointWriter {
 public:
  /// Starts the body with "<magic> <version>".
  explicit CheckpointWriter(const CheckpointFormat& format);

  /// Start a new line: keyword `kw`, then `fields`.
  template <class... Ts>
  CheckpointWriter& line(std::string_view kw, const Ts&... fields) {
    body_ += '\n';
    body_ += kw;
    return put(fields...);
  }
  /// Append `fields` to the current line.
  template <class... Ts>
  CheckpointWriter& put(const Ts&... fields) {
    (field(fields), ...);
    return *this;
  }
  /// Append a digest as 16 hex digits.
  CheckpointWriter& hex(std::uint64_t v);

  /// The finished body with its digest trailer (seal_checkpoint).
  [[nodiscard]] std::string seal() &&;

 private:
  template <std::integral T>
  void field(T v) {
    body_ += ' ';
    body_ += std::to_string(static_cast<std::uint64_t>(v));
  }
  void field(double v) { hex(std::bit_cast<std::uint64_t>(v)); }
  void field(std::string_view s);
  template <class T, std::size_t N>
  void field(const std::array<T, N>& a) {
    for (const T& v : a) field(v);
  }
  template <class T>
  void field(const std::vector<T>& v) {
    field(v.size());
    for (const T& x : v) field(x);
  }

  std::string body_;
};

/// Strict reader over a checkpoint body.  Every failure — truncation, a
/// wrong keyword, a signed, overflowing or out-of-range integer, a bad
/// escape, a length larger than the tokens left — throws
/// CheckpointError(kCorrupt), so no caller sees a partial decode.
class CheckpointReader {
 public:
  CheckpointReader(std::string_view body, std::string_view name);

  /// Read a line written by CheckpointWriter::line(kw, fields...).
  template <class... Ts>
  void line(std::string_view kw, Ts&... fields) {
    expect(kw);
    get(fields...);
  }
  /// Read fields written by CheckpointWriter::put(fields...).
  template <class... Ts>
  void get(Ts&... fields) {
    (field(fields), ...);
  }
  void expect(std::string_view kw);
  /// A length: a u64 no larger than the number of tokens left, so a
  /// corrupt count fails here rather than in an allocation.
  std::uint64_t count();
  std::uint64_t hex();
  /// True when only whitespace is left.
  [[nodiscard]] bool done() const { return left_ == 0; }

  [[noreturn]] void corrupt(const std::string& why) const;

 private:
  std::string_view tok();
  std::uint64_t u64();

  template <std::unsigned_integral T>
  void field(T& v) {
    const std::uint64_t x = u64();
    if (x > std::numeric_limits<T>::max())
      corrupt("integer " + std::to_string(x) + " out of range");
    v = static_cast<T>(x);
  }
  void field(double& v) { v = std::bit_cast<double>(hex()); }
  void field(std::string& s);
  template <class T, std::size_t N>
  void field(std::array<T, N>& a) {
    for (T& v : a) field(v);
  }
  template <class T>
  void field(std::vector<T>& v) {
    v.resize(count());
    for (T& x : v) field(x);
  }

  std::string_view text_;
  std::string_view name_;
  std::size_t pos_ = 0;
  std::size_t left_ = 0;  // tokens not yet read
};

/// Append the trailer "digest <FNV-1a-64 of body>\n" to `body`, which
/// must end in a newline.
[[nodiscard]] std::string seal_checkpoint(std::string body);

/// Check `text`'s digest trailer (kCorrupt), then its magic and version
/// (kVersion); returns a reader over the body positioned after the
/// version.  The reader views `text`, which must outlive it.
[[nodiscard]] CheckpointReader open_checkpoint(std::string_view text,
                                               const CheckpointFormat& format);

/// The contents of the checkpoint file at `path`; kMissing when it cannot
/// be opened.
[[nodiscard]] std::string read_checkpoint_file(const std::string& path,
                                               const CheckpointFormat& format);

/// Write `content` to `path` atomically (temp file + rename).  Throws
/// lgg::Error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

/// The fault injector's position: the draws, counts and replay cursors of
/// every site and the event count end the current line, then one
/// "fe <site> <draw> <detail>" line follows per recorded event.
void write_fault_state(CheckpointWriter& w, const FaultInjector::State& s);
[[nodiscard]] FaultInjector::State read_fault_state(CheckpointReader& r);

}  // namespace lgg::resilience
