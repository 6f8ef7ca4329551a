// Unified observability session: span tracer + metrics registry, threaded
// through the drivers as one optional pointer (DESIGN.md §12).
//
// Usage inside a driver (host-serial code only):
//
//   obs::Scope root(opts.obs, "gpu/triangle", "driver");
//   {
//     obs::Scope plan(opts.obs, "plan/bfs+als", "plan");
//     ... build the plan ...
//     plan.model_s(preprocessing_s);          // modelled duration
//     if (plan) plan.arg("tests", plan_tests);  // guard arg rendering
//   }
//   obs::record_kernel(opts.obs, result.kernel);
//
// A null session disables everything at the cost of one pointer test per
// call — the tracer-overhead bench (bench/obs_overhead.cpp) pins the
// tracing-off overhead under 5%.  Scopes obey stack discipline per
// session (they mirror the call structure, so this is natural).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "gpusim/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lgg::obs {

struct Session {
  Tracer tracer;
  Metrics metrics;
};

/// RAII span over a Session (no-op when the session is null).
class Scope {
 public:
  Scope(Session* session, std::string name, std::string cat = "")
      : session_(session) {
    if (session_ != nullptr)
      id_ = session_->tracer.begin(std::move(name), std::move(cat));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }

  /// End the span before the scope exits (idempotent; the destructor
  /// becomes a no-op).  Needed when a span must close mid-block so a
  /// sibling can begin.
  void close() {
    if (session_ == nullptr) return;
    session_->tracer.end(id_);
    session_ = nullptr;
  }

  /// True when the span is live — use to guard arg-string construction.
  explicit operator bool() const noexcept { return session_ != nullptr; }

  /// Charge a modelled duration to this span (innermost open).
  void model_s(double seconds) {
    if (session_ != nullptr) session_->tracer.charge_s(seconds);
  }

  void arg(std::string_view key, std::string_view value) {
    if (session_ != nullptr)
      session_->tracer.arg(id_, std::string(key),
                           "\"" + json_escape(value) + "\"");
  }
  void arg(std::string_view key, const char* value) {
    arg(key, std::string_view(value));
  }
  void arg(std::string_view key, std::uint64_t value) {
    if (session_ != nullptr)
      session_->tracer.arg(id_, std::string(key), std::to_string(value));
  }
  void arg(std::string_view key, double value) {
    if (session_ != nullptr)
      session_->tracer.arg(id_, std::string(key), format_number(value));
  }
  void arg(std::string_view key, bool value) {
    if (session_ != nullptr)
      session_->tracer.arg(id_, std::string(key), value ? "true" : "false");
  }

 private:
  Session* session_;
  std::size_t id_ = Tracer::kDropped;
};

// ---- gpusim aggregation helpers --------------------------------------
// All no-ops on a null session.  Counter families are documented in
// DESIGN.md §12; the integer counters mirror KernelReport fields exactly
// (the acceptance invariant tests/obs_test.cpp pins).

/// Record one kernel launch: access slots vs coalesced transactions,
/// partition serialized/ideal steps, bank conflicts, camping histogram,
/// modelled kernel seconds.
void record_kernel(Session* session, const gpusim::KernelReport& report);

/// Record one host<->device copy (bytes, seconds, corruption).
void record_transfer(Session* session, const gpusim::TransferReport& report);

/// Record sancheck hazard totals (per-class labelled counters) plus one
/// zero-duration "hazard/<class>" span per recorded hazard, so a --trace
/// localizes hazard sites on the modelled timeline.
void record_hazards(Session* session, const gpusim::HazardReport& report);

/// Record achieved occupancy for a launch (histogram, buckets of 1/8).
void record_occupancy(Session* session, double occupancy);

}  // namespace lgg::obs
