// The serving session: admission, fair ordering, batching, result cache
// and backend execution over a catalog of resident graphs (DESIGN.md §15).
//
// Concurrency model: submit() is thread-safe and does nothing but append
// the request to the pending set; ALL serving decisions happen inside
// drain(), which runs on one thread and processes requests in caller-
// assigned id order — so the responses, the request log, the span tree
// and the metrics are pure functions of the request set, byte-identical
// no matter how many client threads submitted or in what arrival order.
// Parallelism lives inside a pass (the simulator's ExecPolicy sharding,
// the DODG counter's ThreadPool), where the simulator's and the
// ingest's determinism contracts guarantee bit-identical results, and
// across the host passes of a wave (step 5), whose results are computed
// concurrently but committed on the drain thread in pass order.
//
// drain() pipeline, in order:
//   1. admission  — per-tenant quota applied in id order; rejected
//                   requests get a Status::kRejected response,
//   2. fair order — round-robin across tenants (sorted by name, each
//                   tenant's queue in id order): no tenant waits behind
//                   another tenant's burst,
//   3. cache      — lookup under (graph digest, canonical query, seed);
//                   hits answer WITHOUT touching any backend (zero new
//                   kernel launches),
//   4. batching   — misses grouped by (graph, pass key) in first-
//                   appearance order; one backend pass answers the whole
//                   group (all cc queries share one sweep, all triangle
//                   queries one device run),
//   5. execution  — in pass order.  Triangles passes run inline:
//                   ResilientRunner (with the catalog's prepared ALS
//                   plan, zero modelled preprocessing) when the graph's
//                   test space fits the device budget, the DODG host
//                   counter beyond it.  Each run of consecutive host
//                   passes (kclique/doulion/wedges/bfs/cc) is a wave of
//                   at most 8: results computed on the executor `exec`
//                   selects, then committed one pass at a time in pass
//                   order (responses, cache and memo inserts, log,
//                   spans, metrics); a pass's exception is rethrown at
//                   its own turn.
//
// Response bodies are pure functions of (graph content, canonical query,
// seed): cache/batch markers appear only in the log, so cached and
// uncached runs produce identical responses.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/executor.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "serve/cache.hpp"
#include "serve/catalog.hpp"
#include "serve/request.hpp"

namespace lgg::serve {

struct ServeOptions {
  /// Result-cache capacity in entries (0 disables caching).
  std::size_t cache_capacity = 64;
  /// Merge same-graph same-pass-key requests into one backend pass.
  bool batching = true;
  /// Per-tenant admission quota per drain (0 = unlimited).  Applied in
  /// request-id order, so which requests are rejected is deterministic.
  std::uint64_t tenant_quota = 0;
  /// Triangle backend resolution: the resilient device pipeline runs
  /// when the graph's ALS test space is at most this many candidate
  /// triples; larger graphs use the DODG host counter (simulating every
  /// test of a huge graph is exactly what the serving layer must not do).
  std::uint64_t device_test_budget = 1u << 22;
  /// Host-side execution policy for simulated device passes and for the
  /// host-pass waves of a drain (results are bit-identical across
  /// settings).
  gpusim::ExecPolicy exec;
  /// Optional observability session: per-request + per-pass spans and
  /// lgg_serve_* counters.  Must be the catalog's session (or null).
  obs::Session* obs = nullptr;
  /// Optional profiler hook (non-owning), forwarded to every resilient
  /// backend pass the drain loop runs (DESIGN.md §17).
  gpusim::ProfilerHook* prof = nullptr;
  /// Uniform device fault rate for resilient backend passes (0 runs
  /// fault-free).  The service owns one seed-driven injector whose draw
  /// position persists across passes and drains, so the fault pattern —
  /// and every retry the runner charges — is a pure function of the
  /// request sequence: responses stay byte-identical at any thread count
  /// and any cache state, only recovery accounting varies.
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0;
};

/// Drain-boundary serving state for durable checkpoint/restart
/// (DESIGN.md §16): everything a restarted process needs to continue a
/// script byte-identically — the drain sequence number, the request log
/// prefix, the result cache (contents + logical clock), the fault
/// injector position, and the caller's request-id cursor.
struct ServeState {
  std::uint64_t next_id = 0;  // caller-maintained request-id cursor
  std::uint64_t drain_seq = 0;
  std::string log;
  ResultCache::Snapshot cache;
  bool has_faults = false;
  resilience::FaultInjector::State faults;
};

/// Serialize / parse the serve checkpoint, built on the resilient
/// runner's checkpoint codec (writer, reader, digest envelope and fault
/// state section).  decode throws resilience::CheckpointError (kCorrupt /
/// kVersion).
[[nodiscard]] std::string encode_serve_state(const ServeState& s);
[[nodiscard]] ServeState decode_serve_state(std::string_view text);

/// Durable save (write-to-temp + rename) / load (kMissing when absent).
void save_serve_state(const std::string& path, const ServeState& s);
[[nodiscard]] ServeState load_serve_state(const std::string& path);

class Service {
 public:
  Service(Catalog& catalog, const ServeOptions& opts = {});

  /// Enqueue a request (thread-safe; any client thread).  Ids must be
  /// unique within a drain — they key every serving decision.
  void submit(Request req);

  /// Serve every pending request (single caller at a time): admission,
  /// fair ordering, cache, batching, execution.  Returns responses
  /// sorted by id and appends to the request log.
  std::vector<Response> drain();

  /// Deterministic request log (one line per request and per pass, plus
  /// a summary line per drain).
  [[nodiscard]] const std::string& log() const noexcept { return log_; }

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  /// The owned fault injector (nullptr when fault_rate is 0).
  [[nodiscard]] const resilience::FaultInjector* faults() const noexcept {
    return faults_ ? &*faults_ : nullptr;
  }

  /// Checkpointable state at a drain boundary (next_id left 0 — the
  /// request-id cursor lives with the caller who assigns ids).  Must not
  /// be called with requests pending.
  [[nodiscard]] ServeState state() const;
  /// Restore a drain-boundary state onto a freshly constructed service
  /// with the same options.  Must precede any submit/drain.  A state taken
  /// with faults armed (or not) when this service has them off (or on)
  /// throws resilience::CheckpointError (kPlanMismatch) and changes
  /// nothing.
  void restore_state(const ServeState& s);

 private:
  struct Group;  // one batched backend pass

  /// Run one triangles pass inline (resilient device pipeline or the
  /// DODG counter); returns the backend name.
  std::string run_triangles(ResidentGraph& rg, const Group& group,
                            const std::vector<Request>& reqs,
                            const std::vector<std::string>& canon,
                            std::vector<Response>& responses);

  Catalog& catalog_;
  ServeOptions opts_;
  ResultCache cache_;
  /// Owned injector for resilient passes (engaged when fault_rate > 0);
  /// only the single-threaded drain path touches it.
  std::optional<resilience::FaultInjector> faults_;
  std::mutex mutex_;
  std::vector<Request> pending_;
  std::string log_;
  std::uint64_t drain_seq_ = 0;
};

}  // namespace lgg::serve
