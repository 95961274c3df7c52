// Request-scoped span tracing (DESIGN.md §12).
//
// A trace is a tree of named, timed spans collected on one thread. The
// client starts one per user operation (`trace_begin` with a fresh
// request id), the Client tags every RPC frame with that id
// (proto::seal_tagged_v2), and the server adopts it for the duration of
// the handler (RequestScope) so its audit-log lines and slow-op warnings
// carry the same id — one grep correlates both parties.
//
// When no trace is active every Span is a single thread-local load and a
// branch; nothing allocates.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace fgad::obs {

/// The request id bound to this thread (0 = none). Cheap enough to call
/// on every RPC.
std::uint64_t current_request_id();

/// Fresh, process-unique, unpredictable-enough request id (not a secret —
/// it only correlates logs).
std::uint64_t generate_request_id();

/// Server-side RAII adoption of a request id decoded from the wire; the
/// previous id is restored on scope exit. Does not start span collection.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t rid);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Starts collecting spans on this thread under `rid` (also sets
/// current_request_id). Any previous collection on the thread is dropped.
/// `parent_span_id` (when nonzero) parents this thread's root spans under
/// a span of the remote peer that sent the request — the wire-carried
/// span context of a kTaggedEnvelopeV2 frame (DESIGN.md §19).
void trace_begin(std::uint64_t rid, std::uint64_t parent_span_id = 0);

/// True when this thread is collecting spans.
bool trace_active();

/// The id of the innermost open span on this thread (0 when none or no
/// trace is active). This is the span context a client puts on the wire.
std::uint64_t trace_current_span_id();

/// Names this process's lane in rendered/stitched trace documents
/// ("client", "primary", "backup", ...). `label` must outlive the
/// process (string literals only); defaults to "proc".
void trace_set_process_label(const char* label);

/// Prints the collected span tree to `out`, then stops collection and
/// clears the request id. No-op when no trace is active.
void trace_dump(std::FILE* out);

/// Renders the spans collected on this thread since trace_begin() as one
/// Chrome trace-event JSON object (the `{"traceEvents":[...]}` flavor,
/// loadable in Perfetto or chrome://tracing; DESIGN.md §14). Spans become
/// complete ("ph":"X") events with microsecond ts/dur, so the nesting
/// shows up as a flame graph. Does not stop collection; returns "" when
/// no trace is active.
std::string trace_render_chrome_json();

/// trace_dump's file sibling: writes trace_render_chrome_json() to `path`
/// atomically, then stops collection and clears the request id.
Status trace_export_json(const std::string& path);

/// Stops span collection on this thread without printing anything and
/// clears the request id. No-op when no trace is active.
void trace_stop();

/// Bounded FIFO of rid -> rendered Chrome-trace JSON, filled by the server
/// when capture is enabled (`fgad_server --trace-capture N`). Serves
/// GET /traces.json (index) and GET /trace.json?rid=<hex> (one trace).
class TraceStore {
 public:
  static TraceStore& instance();

  /// Keeps the most recent `n` traces; 0 (the default) disables capture.
  void set_capacity(std::size_t n);
  bool capture_enabled() const;

  /// Stores `rid`'s rendered document. A second put under the same rid
  /// merges the new document's events into the stored one (same process,
  /// same clock — multi-RPC traces accumulate into one timeline).
  /// Evicting a trace to make room records an FrEvent::kSpanDropped
  /// (rid = the evicted trace's) and bumps fgad_trace_dropped_total.
  void put(std::uint64_t rid, std::string trace_json);
  /// Splices one post-hoc event into `rid`'s stored document — work that
  /// finished after the owning thread's trace was captured (e.g. the
  /// group committer's amortized fsync share). `abs_start_ns` is on this
  /// process's obs::now_ns() clock. No-op when rid is absent.
  void append_event(std::uint64_t rid, const char* name,
                    std::uint64_t abs_start_ns, std::uint64_t dur_ns);
  /// The stored trace for `rid`, or "" when absent/evicted.
  std::string get(std::uint64_t rid) const;
  /// Stored rids, oldest first.
  std::vector<std::uint64_t> rids() const;

 private:
  TraceStore() = default;

  mutable std::mutex mu_;
  std::size_t capacity_ = 0;
  std::deque<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::string> by_rid_;
};

/// RAII span. `name` must outlive the trace (string literals only).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t index_;
  std::uint64_t parent_restore_ = 0;  // parent id displaced by this span
  static constexpr std::size_t kInactive = ~std::size_t{0};
};

}  // namespace fgad::obs
