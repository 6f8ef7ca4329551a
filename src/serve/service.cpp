#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <variant>

#include "core/approx.hpp"
#include "core/kcount.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/bfs.hpp"
#include "ingest/orient.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/runner.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lgg::serve {

/// One batched backend pass: the same-graph requests (by index into the
/// drain's id-sorted request vector) that share a pass key.
struct Service::Group {
  std::string graph;
  std::string key;
  std::vector<std::size_t> members;  // in fair order
};

namespace {

/// Most host passes one wave computes at once: bounds the typed results
/// (a cc pass holds an n-sized vector) a drain keeps between compute and
/// commit.
constexpr std::size_t kWaveCap = 8;

/// What a host pass computed before its commit: a k-clique count, an
/// estimate, a BFS summary, a fresh cc sweep, or nothing (a bfs source
/// out of range, a cc pass on a memoized graph).
using HostValue =
    std::variant<std::monostate, std::uint64_t, core::DoulionResult,
                 core::WedgeSampleResult, BfsSummary, std::vector<double>>;

struct HostResult {
  HostValue value;
  std::exception_ptr error;  // rethrown at the pass's turn to commit
};

/// The value of a bfs or cc pass its graph's memos (or a range check)
/// already answer; nullopt when the pass has real work to do.
std::optional<HostValue> memoized(const ResidentGraph& rg,
                                  const Request& head) {
  if (head.kind == QueryKind::kBfs) {
    if (head.vertex >= rg.loaded.graph.num_vertices()) return std::monostate{};
    const auto it = rg.bfs_memo.find(head.vertex);
    if (it != rg.bfs_memo.end()) return it->second;
  }
  if (head.kind == QueryKind::kCc && rg.cc_memo.has_value())
    return std::monostate{};
  return std::nullopt;
}

/// Host pass body for a pass memoized() does not answer: reads the
/// resident graph, writes nothing, and touches neither the pool, obs,
/// the profiler nor the fault injector, so a wave's passes may run on
/// any threads.
HostValue compute_host_pass(const ResidentGraph& rg, const Request& head) {
  const graph::Graph& g = rg.loaded.graph;
  switch (head.kind) {
    case QueryKind::kKClique:
      return core::count_kcliques(g, head.k);
    case QueryKind::kDoulion:
      return core::doulion_estimate(g, head.p, head.seed);
    case QueryKind::kWedges:
      return core::wedge_sampling_estimate(g, head.samples, head.seed);
    case QueryKind::kBfs:
      return summarize_bfs(graph::bfs(g, head.vertex));
    case QueryKind::kCc:
      return core::clustering_coefficients(g);
    case QueryKind::kTriangles:
      break;
  }
  LGG_ASSERT(false && "triangles passes run inline, not in a wave");
  return std::monostate{};
}

/// Answer every member of a pass with one body and cache it per member.
void answer_all(ResultCache& cache, const ResidentGraph& rg,
                const std::vector<std::size_t>& members,
                const std::vector<Request>& reqs,
                const std::vector<std::string>& canon, const std::string& body,
                std::vector<Response>& responses) {
  for (const std::size_t idx : members) {
    responses[idx].status = Status::kOk;
    responses[idx].body = body;
    cache.insert(CacheKey{rg.digest, canon[idx], reqs[idx].seed}, body);
  }
}

/// Commit one host pass's value: memo inserts, responses and cache
/// inserts.  Returns the backend name the pass logs.
std::string commit_host_pass(ResultCache& cache, ResidentGraph& rg,
                             const std::vector<std::size_t>& members,
                             HostValue& value,
                             const std::vector<Request>& reqs,
                             const std::vector<std::string>& canon,
                             std::vector<Response>& responses) {
  const graph::Graph& g = rg.loaded.graph;
  const Request& head = reqs[members.front()];
  const auto ok_all = [&](const std::string& body) {
    answer_all(cache, rg, members, reqs, canon, body, responses);
  };

  switch (head.kind) {
    case QueryKind::kKClique:
      ok_all("cliques=" + std::to_string(std::get<std::uint64_t>(value)) +
             " backend=host");
      break;
    case QueryKind::kDoulion: {
      const auto& res = std::get<core::DoulionResult>(value);
      ok_all("estimate=" + obs::format_number(res.estimate) +
             " sparsified=" + std::to_string(res.sparsified_count) +
             " kept_edges=" + std::to_string(res.kept_edges) +
             " backend=host");
      break;
    }
    case QueryKind::kWedges: {
      const auto& res = std::get<core::WedgeSampleResult>(value);
      ok_all("estimate=" + obs::format_number(res.estimate) +
             " closed_fraction=" + obs::format_number(res.closed_fraction) +
             " wedges=" + std::to_string(res.total_wedges) +
             " backend=host");
      break;
    }
    case QueryKind::kBfs: {
      if (head.vertex >= g.num_vertices()) {
        for (const std::size_t idx : members) {
          responses[idx].status = Status::kError;
          responses[idx].body = "reason=\"vertex out of range\"";
        }
        return "none";
      }
      // A no-op when an earlier pass of this wave memoized the source.
      const BfsSummary& summary =
          rg.bfs_memo.emplace(head.vertex, std::get<BfsSummary>(value))
              .first->second;
      ok_all("depth=" + std::to_string(summary.depth) +
             " reached=" + std::to_string(summary.reached) +
             " backend=host");
      break;
    }
    case QueryKind::kCc: {
      if (!rg.cc_memo.has_value())
        rg.cc_memo = std::move(std::get<std::vector<double>>(value));
      bool any_ok = false;
      for (const std::size_t idx : members) {
        const Request& r = reqs[idx];
        if (r.vertex >= g.num_vertices()) {
          responses[idx].status = Status::kError;
          responses[idx].body = "reason=\"vertex out of range\"";
          continue;
        }
        any_ok = true;
        responses[idx].status = Status::kOk;
        responses[idx].body =
            "cc=" + obs::format_number((*rg.cc_memo)[r.vertex]) +
            " backend=host";
        cache.insert(CacheKey{rg.digest, canon[idx], r.seed},
                     responses[idx].body);
      }
      if (!any_ok) return "none";
      break;
    }
    case QueryKind::kTriangles:
      LGG_ASSERT(false && "triangles passes have no host commit");
  }
  return "host";
}

/// Run fn(i) for i in [0, n) on the executor `exec` selects, as
/// gpusim::Simulator does: serial inline, parallel(0) on the shared
/// pool, parallel(k) on a private pool of k workers.
template <class Fn>
void for_each_on(const gpusim::ExecPolicy& exec, std::size_t n,
                 const Fn& fn) {
  if (exec.mode == gpusim::ExecPolicy::Mode::kSerial || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One pass per chunk, claimed dynamically: pass costs differ widely.
  const auto range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  };
  if (exec.threads > 0) {
    ThreadPool pool(exec.threads);
    pool.parallel_for_dynamic(n, range, 1, kWaveCap);
  } else {
    ThreadPool::shared().parallel_for_dynamic(n, range, 1, kWaveCap);
  }
}

}  // namespace

Service::Service(Catalog& catalog, const ServeOptions& opts)
    : catalog_(catalog), opts_(opts), cache_(opts.cache_capacity) {
  if (opts_.fault_rate > 0.0)
    faults_.emplace(opts_.fault_seed,
                    resilience::FaultRates::uniform(opts_.fault_rate));
}

void Service::submit(Request req) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(std::move(req));
}

std::string Service::run_triangles(ResidentGraph& rg, const Group& group,
                                   const std::vector<Request>& reqs,
                                   const std::vector<std::string>& canon,
                                   std::vector<Response>& responses) {
  std::uint64_t count = 0;
  std::string backend;
  if (rg.plan.total_tests <= opts_.device_test_budget) {
    // Device pass with the catalog's prepared plan: zero modelled
    // preprocessing, certified by the resilient runner.
    resilience::RunnerOptions ropts;
    ropts.device = catalog_.options().device;
    ropts.metric = catalog_.options().metric;
    ropts.exec = opts_.exec;
    ropts.obs = opts_.obs;
    ropts.prof = opts_.prof;
    ropts.prepared = &rg.plan;
    ropts.faults = faults_ ? &*faults_ : nullptr;
    const resilience::RunnerReport rr =
        resilience::run_resilient(rg.loaded.graph, ropts);
    LGG_CHECK(rr.exact, "serve: resilient pass failed to certify "
                        << group.key << " on " << group.graph);
    count = rr.triangles;
    if (opts_.obs != nullptr && rr.recovery.faults > 0)
      opts_.obs->metrics.count("lgg_serve_pass_faults_total",
                               rr.recovery.faults);
    backend = "resilient";
  } else {
    // Test space too large to simulate per query: the cached DODG
    // intersection counter answers exactly on the host.
    count = ingest::count_triangles_oriented(rg.dodg, &ThreadPool::shared());
    backend = "dodg";
  }
  answer_all(cache_, rg, group.members, reqs, canon,
             "triangles=" + std::to_string(count) + " backend=" + backend,
             responses);
  return backend;
}

std::vector<Response> Service::drain() {
  std::vector<Request> reqs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    reqs.swap(pending_);
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < reqs.size(); ++i)
    LGG_CHECK(reqs[i - 1].id != reqs[i].id,
              "serve: duplicate request id " << reqs[i].id);

  obs::Scope drain_span(
      opts_.obs, "serve/drain[" + std::to_string(drain_seq_) + "]", "serve");

  std::vector<std::string> canon;
  canon.reserve(reqs.size());
  for (const Request& r : reqs) canon.push_back(canonical_query(r));

  std::vector<Response> responses(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    responses[i].id = reqs[i].id;
    responses[i].tenant = reqs[i].tenant;
    responses[i].graph = reqs[i].graph;
    responses[i].canonical = canon[i];
  }

  std::ostringstream log;

  // 1. Admission: per-tenant quota, applied in id order.
  std::uint64_t rejected = 0;
  std::map<std::string, std::vector<std::size_t>> by_tenant;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    auto& queue = by_tenant[r.tenant];
    if (opts_.tenant_quota != 0 && queue.size() >= opts_.tenant_quota) {
      responses[i].status = Status::kRejected;
      responses[i].body = "reason=\"admission quota exceeded\"";
      ++rejected;
      log << "req id=" << r.id << " tenant=" << r.tenant
          << " graph=" << r.graph << " query=\"" << canon[i]
          << "\" admit=rejected\n";
      if (opts_.obs != nullptr)
        opts_.obs->metrics.count("lgg_serve_admission_rejected_total", 1,
                                 "tenant=\"" + r.tenant + "\"");
      continue;
    }
    queue.push_back(i);
  }

  // 2. Fair order: round-robin across tenants (sorted by name), each
  // tenant's queue in id order.
  std::vector<std::size_t> fair;
  std::size_t admitted = 0;
  for (const auto& [tenant, queue] : by_tenant) admitted += queue.size();
  fair.reserve(admitted);
  std::map<std::string, std::size_t> cursor;
  while (fair.size() < admitted) {
    for (const auto& [tenant, queue] : by_tenant) {
      std::size_t& c = cursor[tenant];
      if (c < queue.size()) fair.push_back(queue[c++]);
    }
  }

  // 3+4. Cache lookups and batching, in fair order.
  std::vector<Group> groups;
  std::map<std::pair<std::string, std::string>, std::size_t> group_index;
  std::uint64_t hits = 0, misses = 0, errors = 0;
  for (const std::size_t idx : fair) {
    const Request& r = reqs[idx];
    if (opts_.obs != nullptr)
      opts_.obs->metrics.count("lgg_serve_requests_total", 1,
                               "tenant=\"" + r.tenant + "\"");
    obs::Scope span(opts_.obs, "serve/req[" + std::to_string(r.id) + "]",
                    "serve");
    if (span) {
      span.arg("tenant", r.tenant);
      span.arg("graph", r.graph);
      span.arg("query", canon[idx]);
    }
    ResidentGraph* rg = catalog_.find(r.graph);
    if (rg == nullptr) {
      responses[idx].status = Status::kError;
      responses[idx].body = "reason=\"unknown graph\"";
      ++errors;
      log << "req id=" << r.id << " tenant=" << r.tenant
          << " graph=" << r.graph << " query=\"" << canon[idx]
          << "\" error=unknown-graph\n";
      if (span) span.arg("error", "unknown graph");
      if (opts_.obs != nullptr)
        opts_.obs->metrics.count("lgg_serve_errors_total");
      continue;
    }
    const CacheKey key{rg->digest, canon[idx], r.seed};
    if (const auto cached = cache_.lookup(key)) {
      responses[idx].status = Status::kOk;
      responses[idx].body = *cached;
      ++hits;
      log << "req id=" << r.id << " tenant=" << r.tenant
          << " graph=" << r.graph << " query=\"" << canon[idx]
          << "\" cache=hit\n";
      if (span) span.arg("cache", "hit");
      if (opts_.obs != nullptr)
        opts_.obs->metrics.count("lgg_serve_cache_hits_total");
      continue;
    }
    ++misses;
    if (opts_.obs != nullptr)
      opts_.obs->metrics.count("lgg_serve_cache_misses_total");
    // Batching off: every miss is its own single-request pass.
    const std::pair<std::string, std::string> gkey{
        r.graph,
        opts_.batching ? pass_key(r) : "req/" + std::to_string(r.id)};
    const auto [it, inserted] = group_index.try_emplace(gkey, groups.size());
    if (inserted) groups.push_back(Group{gkey.first, gkey.second, {}});
    groups[it->second].members.push_back(idx);
    log << "req id=" << r.id << " tenant=" << r.tenant
        << " graph=" << r.graph << " query=\"" << canon[idx]
        << "\" cache=miss pass=" << it->second << "\n";
    if (span) {
      span.arg("cache", "miss");
      span.arg("pass", static_cast<std::uint64_t>(it->second));
    }
  }

  // 5. Execute passes in first-appearance order.  Each run of
  // consecutive host passes forms a wave (at most kWaveCap passes): the
  // wave's results are computed concurrently on opts_.exec, then
  // committed one pass at a time in pass order, so every response, cache
  // insert, memo insert, log line, span and metric lands exactly as a
  // one-pass-at-a-time loop would leave it.  Triangles passes run inline.
  const std::uint64_t evictions_before = cache_.evictions();
  std::uint64_t merges = 0;
  const auto run_pass = [&](std::size_t gi, const auto& execute) {
    const Group& group = groups[gi];
    obs::Scope pass_span(opts_.obs, "serve/pass[" + std::to_string(gi) + "]",
                         "serve");
    if (pass_span) {
      pass_span.arg("graph", group.graph);
      pass_span.arg("key", group.key);
      pass_span.arg("size",
                    static_cast<std::uint64_t>(group.members.size()));
    }
    merges += group.members.size() - 1;
    if (opts_.obs != nullptr) {
      opts_.obs->metrics.count("lgg_serve_passes_total");
      if (group.members.size() > 1)
        opts_.obs->metrics.count("lgg_serve_batch_merges_total",
                                 group.members.size() - 1);
    }
    const std::uint64_t pass_t0 =
        opts_.obs != nullptr ? opts_.obs->tracer.now_ns() : 0;
    const std::string backend = execute();
    if (pass_span) pass_span.arg("backend", backend);
    if (opts_.obs != nullptr) {
      // Modelled pass latency: the tracer clock the backend charged.
      // One per-pass sample plus one per member request under its tenant,
      // so per-tenant tails are visible even when batching merges them.
      static constexpr double kPassLatencyBounds[] = {1e-4, 1e-3, 1e-2,
                                                      0.1,  1.0,  10.0};
      const double pass_s =
          static_cast<double>(opts_.obs->tracer.now_ns() - pass_t0) * 1e-9;
      opts_.obs->metrics.observe("lgg_serve_pass_latency_s", pass_s,
                                 kPassLatencyBounds);
      for (const std::size_t idx : group.members)
        opts_.obs->metrics.observe("lgg_serve_pass_latency_s", pass_s,
                                   kPassLatencyBounds,
                                   "tenant=\"" + reqs[idx].tenant + "\"");
    }
    log << "pass " << gi << ": graph=" << group.graph
        << " key=" << group.key << " size=" << group.members.size()
        << " backend=" << backend << "\n";
  };
  const auto resident = [&](const Group& group) -> ResidentGraph& {
    ResidentGraph* rg = catalog_.find(group.graph);
    LGG_ASSERT(rg != nullptr);
    return *rg;
  };
  const auto is_host = [&](const Group& group) {
    return reqs[group.members.front()].kind != QueryKind::kTriangles;
  };
  std::vector<HostResult> wave;
  std::vector<std::size_t> work;  // wave slots with work to compute
  for (std::size_t gi = 0; gi < groups.size();) {
    if (!is_host(groups[gi])) {
      run_pass(gi, [&] {
        return run_triangles(resident(groups[gi]), groups[gi], reqs, canon,
                             responses);
      });
      ++gi;
      continue;
    }
    std::size_t end = gi + 1;
    while (end < groups.size() && end - gi < kWaveCap && is_host(groups[end]))
      ++end;
    // Memo answers are taken inline; only passes with work fan out.
    wave.assign(end - gi, HostResult{});
    work.clear();
    for (std::size_t w = 0; w < wave.size(); ++w) {
      const Group& group = groups[gi + w];
      if (auto value = memoized(resident(group), reqs[group.members.front()]))
        wave[w].value = std::move(*value);
      else
        work.push_back(w);
    }
    for_each_on(opts_.exec, work.size(), [&](std::size_t i) {
      const Group& group = groups[gi + work[i]];
      try {
        wave[work[i]].value =
            compute_host_pass(resident(group), reqs[group.members.front()]);
      } catch (...) {
        wave[work[i]].error = std::current_exception();
      }
    });
    for (std::size_t w = 0; gi < end; ++gi, ++w) {
      run_pass(gi, [&] {
        if (wave[w].error) std::rethrow_exception(wave[w].error);
        return commit_host_pass(cache_, resident(groups[gi]),
                                groups[gi].members, wave[w].value, reqs,
                                canon, responses);
      });
    }
  }
  if (opts_.obs != nullptr && cache_.evictions() > evictions_before)
    opts_.obs->metrics.count("lgg_serve_cache_evictions_total",
                             cache_.evictions() - evictions_before);

  log << "drain seq=" << drain_seq_ << " requests=" << reqs.size()
      << " rejected=" << rejected << " hits=" << hits
      << " misses=" << misses << " errors=" << errors
      << " passes=" << groups.size() << " merges=" << merges << "\n";
  if (drain_span) {
    drain_span.arg("requests", static_cast<std::uint64_t>(reqs.size()));
    drain_span.arg("passes", static_cast<std::uint64_t>(groups.size()));
    drain_span.arg("hits", hits);
  }
  ++drain_seq_;
  // Move the text out of the stream; the first drain adopts it whole.
  if (log_.empty())
    log_ = std::move(log).str();
  else
    log_ += std::move(log).str();
  return responses;
}

// ------------------------------------------------- checkpoint/restart state

ServeState Service::state() const {
  LGG_CHECK(pending_.empty(),
            "Service::state: must be taken at a drain boundary "
            "(requests are pending)");
  ServeState s;
  s.drain_seq = drain_seq_;
  s.log = log_;
  s.cache = cache_.snapshot();
  s.has_faults = faults_.has_value();
  if (faults_) s.faults = faults_->state();
  return s;
}

void Service::restore_state(const ServeState& s) {
  LGG_CHECK(pending_.empty() && drain_seq_ == 0 && log_.empty(),
            "Service::restore_state: service already served requests");
  if (s.has_faults != faults_.has_value())
    throw resilience::CheckpointError(
        resilience::CheckpointError::Kind::kPlanMismatch,
        "Service::restore_state: fault configuration differs from the "
        "checkpointed run");
  drain_seq_ = s.drain_seq;
  log_ = s.log;
  cache_.restore(s.cache);
  if (faults_) faults_->restore_state(s.faults);
}

namespace {

constexpr resilience::CheckpointFormat kServeFormat{"lggsrvckpt", 1,
                                                    "serve checkpoint"};

}  // namespace

std::string encode_serve_state(const ServeState& s) {
  resilience::CheckpointWriter w(kServeFormat);
  w.line("id", s.next_id);
  w.line("drain", s.drain_seq);
  w.line("log", s.log);
  w.line("cache", s.cache.tick, s.cache.evictions, s.cache.entries.size());
  for (const ResultCache::Snapshot::Entry& e : s.cache.entries)
    w.line("e").hex(e.key.digest).put(e.key.canonical, e.key.seed, e.tick,
                                      e.body);
  w.line("fau", s.has_faults);
  if (s.has_faults) resilience::write_fault_state(w.line("fst"), s.faults);
  return std::move(w).seal();
}

ServeState decode_serve_state(std::string_view text) {
  resilience::CheckpointReader r =
      resilience::open_checkpoint(text, kServeFormat);
  ServeState s;
  r.line("id", s.next_id);
  r.line("drain", s.drain_seq);
  r.line("log", s.log);
  r.line("cache", s.cache.tick, s.cache.evictions);
  const std::uint64_t n_entries = r.count();
  if (n_entries > s.cache.tick)
    r.corrupt("more cache entries than logical ticks");
  s.cache.entries.resize(n_entries);
  for (ResultCache::Snapshot::Entry& e : s.cache.entries) {
    r.expect("e");
    e.key.digest = r.hex();
    r.get(e.key.canonical, e.key.seed, e.tick, e.body);
    if (e.tick > s.cache.tick)
      r.corrupt("cache entry tick beyond the logical clock");
  }
  r.line("fau", s.has_faults);
  if (s.has_faults) {
    r.expect("fst");
    s.faults = resilience::read_fault_state(r);
  }
  if (!r.done()) r.corrupt("trailing data after the last section");
  return s;
}

void save_serve_state(const std::string& path, const ServeState& s) {
  resilience::write_file_atomic(path, encode_serve_state(s));
}

ServeState load_serve_state(const std::string& path) {
  return decode_serve_state(
      resilience::read_checkpoint_file(path, kServeFormat));
}

}  // namespace lgg::serve
