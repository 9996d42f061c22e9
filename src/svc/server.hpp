#pragma once

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "runctl/control.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "util/stopwatch.hpp"

namespace xlp::obs {
class MetricsRegistry;
class SeriesRecorder;
}  // namespace xlp::obs

namespace xlp::svc {

/// Schema identifier of serialized replies.
inline constexpr const char* kReplySchema = "xlp-reply/1";

/// Schema identifier of request lifecycle event records
/// (server-events.jsonl): one JSON line per request served, with the
/// dedup outcome and per-stage durations.
inline constexpr const char* kEventsSchema = "svc-events/1";

/// The answer to one request. `payload_text` is the canonical result
/// payload *bytes* (what the cache stores), spliced verbatim into the
/// serialized reply — an executed result and its later cache hits are
/// byte-identical by construction, never re-serialized.
struct Reply {
  std::string request_id;
  bool ok = true;
  /// True when the reply was served without executing: from the persisted
  /// cache, from another request in flight, or as a duplicate within one
  /// batch.
  bool cache_hit = false;
  std::string payload_text;  ///< result JSON, or the error message when !ok
  /// Error taxonomy (!ok only): an error_code_name() — "parse", "schema",
  /// "state", ... — or "poisoned" for a request whose execution escaped
  /// with a non-Error exception.
  std::string error_kind = "internal";
  /// True when resubmitting the identical request can succeed (deadline
  /// stops, injected faults, poisoned executions); false for requests that
  /// are wrong in themselves (parse / schema / usage). Drives the client's
  /// retry loop.
  bool retryable = false;

  /// {"schema":"xlp-reply/1","request_id":...,"cache_hit":...,
  ///  "result":<payload>} — or, instead of "result",
  ///  "error":{"kind":...,"retryable":...,"message":...}.
  [[nodiscard]] std::string to_text() const;
};

struct ServerOptions {
  std::string cache_dir = "xlp-cache";
  std::size_t cache_entries = 4096;
  /// Pool workers for batch serving; 0 = util::default_thread_count().
  int threads = 0;
  /// Per-request wall-clock budget in seconds (0 = unlimited). A request
  /// stopped by its deadline yields an error reply and is never cached.
  double request_time_limit = 0.0;
  /// Process-level stop (SIGINT): checked between queue files and socket
  /// frames, and merged into every per-request RunControl so in-flight
  /// work also drains promptly.
  runctl::CancelToken* cancel = nullptr;
  /// Ledger path ("" disables). One `xlp-ledger/1` record is appended per
  /// request served, with the request's canonical params as the scenario
  /// identity and `cache_hit` recording how it was answered.
  std::string ledger_path;
  obs::MetricsRegistry* metrics = nullptr;  ///< nullptr = global()

  /// Record latency histograms (queue-wait / execution / end-to-end),
  /// per-kind counters and the series feed — the data behind `stats`
  /// requests. Off benchmarks the bare hot path (bench/suites.cpp pins
  /// the recording overhead under 1%).
  bool observe = true;
  /// Request lifecycle event log ("" disables): one append-only
  /// `svc-events/1` JSONL record per request served, correlated to the
  /// ledger by request id.
  std::string events_path;
  /// Optional operational time series (svc.requests_per_sec,
  /// svc.cache_hit_rate, svc.queue_depth, svc.inflight), one point per
  /// `series_window`. Not owned; the server serializes its own appends,
  /// but the recorder must not be written concurrently by anyone else.
  obs::SeriesRecorder* series = nullptr;
  double series_window = 1.0;  ///< seconds per series sample window
};

/// The batch query server: resolves requests through a content-addressed
/// result cache, deduplicates identical work (within a batch, across
/// concurrent clients, and across restarts via the persisted cache), and
/// shards execution over a util::ThreadPool.
///
/// Determinism contract: for a given request id the served payload bytes
/// are identical at any thread count, whether executed, deduplicated or
/// replayed from the cache (tests/svc_test.cpp pins this).
///
/// Metrics: svc.requests / svc.executed / svc.errors / svc.inflight.hits
/// counters, the svc.execute timer, plus the cache's svc.cache.* family.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Answers one request: cache hit, wait on an identical in-flight
  /// request (single execute, fan-out reply), or execute + cache. Safe to
  /// call from many threads. Never throws: failures become error replies.
  [[nodiscard]] Reply resolve(const Request& request);

  /// Answers a batch, replies in request order. Duplicate requests within
  /// the batch execute once; the first occurrence carries the executed /
  /// cache-hit flag, every later duplicate is marked cache_hit. Unique
  /// requests run concurrently on the pool.
  [[nodiscard]] std::vector<Reply> serve_batch(
      const std::vector<Request>& requests);

  /// Parses one submission document — a request object or an array of
  /// request objects — and serves it. Malformed documents / elements
  /// produce error replies (request_id "" when the id is unknowable), so
  /// a bad client cannot wedge the queue. Returns the serialized reply
  /// document: an object for an object, an array for an array.
  [[nodiscard]] std::string serve_text(const std::string& text);

  /// File-queue transport: serves every `<dir>/inbox/*.json` submission
  /// (lexicographic order), writing `<dir>/outbox/<same-name>` atomically
  /// before removing the inbox file — a crash between the two replays the
  /// file on restart, and the cache makes the replay cheap. With `once`
  /// the current inbox snapshot is drained and the call returns;
  /// otherwise it polls every `poll_seconds` until the cancel token fires
  /// (the file being served is always finished first). Returns the number
  /// of submission files served.
  long run_queue(const std::string& queue_dir, bool once,
                 double poll_seconds);

  /// Local-socket transport: a SOCK_STREAM AF_UNIX listener at
  /// `socket_path` speaking length-prefixed JSON — each frame is a 4-byte
  /// little-endian byte count followed by one submission document; the
  /// reply comes back in the same framing, one round trip per connection.
  /// Connections are handled by `threads` dedicated client workers, so
  /// concurrent identical requests hit the in-flight dedup path. Returns
  /// when the cancel token fires (accepted connections drain first);
  /// false when the socket could not be created.
  bool run_socket(const std::string& socket_path);

  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] long requests_served() const noexcept;

  /// The live introspection snapshot a `stats` request returns, built
  /// from memory (counters, histograms, gauges) without touching the
  /// executor pool: uptime, per-kind counts, dedup-layer hit rates, cache
  /// occupancy/evictions, worker utilization and the three latency
  /// histograms (queue-wait / execution / end-to-end).
  [[nodiscard]] obs::Json stats_snapshot();

  /// Flushes buffered observability: the partial series window is
  /// appended and the events stream is flushed to disk. Called before a
  /// drained daemon writes its final artifacts, so SIGINT loses nothing.
  void flush_observability();

 private:
  struct Inflight {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    bool ok = false;
    std::string payload_text;
    std::string error_kind;
    bool retryable = false;
  };

  /// resolve() with an explicit receive timestamp (seconds on the
  /// server's uptime clock): queue-wait is measured from `received` to
  /// the moment a worker picks the request up.
  Reply resolve_received(const Request& request, double received);
  /// Executes (or waits out) a request that missed the cache. Reports
  /// the dedup outcome ("miss" when this call executed, "inflight" when
  /// it joined another execution) and the execution wall time.
  Reply execute_or_join(const Request& request, const std::string& id,
                        const char** outcome, double* execute_seconds);
  /// Answers a stats request from memory (never cached, never ledgered,
  /// excluded from requests_served() and the latency histograms).
  Reply stats_reply();
  void append_ledger(const Request& request, const Reply& reply,
                     double wall_seconds);
  /// Records one served request into the histograms, per-kind counters,
  /// series windows and the events log. `received` is on the uptime
  /// clock; nullopt stage durations are stages the request skipped.
  /// `cache_corrupt` marks a lookup that hit a corrupt entry (quarantined,
  /// re-executed).
  void observe_request(const Request& request, const Reply& reply,
                       const char* outcome, double received,
                       std::optional<double> queue_wait_seconds,
                       std::optional<double> execute_seconds,
                       bool cache_corrupt = false);
  /// Appends one sample per svc.* series for the window closing at `now`
  /// after `span` seconds, then opens the next window. Caller holds
  /// series_mutex_.
  void close_series_window(double now, double span);
  [[nodiscard]] long inflight_count();

  ServerOptions options_;
  obs::MetricsRegistry* metrics_;
  ResultCache cache_;
  std::string git_sha_;
  std::string hostname_;

  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::mutex ledger_mutex_;
  mutable std::mutex served_mutex_;
  long requests_served_ = 0;

  // --- observability ---
  Stopwatch uptime_;
  obs::ShardedHistogram queue_wait_ns_;
  obs::ShardedHistogram execute_ns_;
  obs::ShardedHistogram end_to_end_ns_;
  std::atomic<long> queue_depth_{0};  ///< socket backlog / inbox depth
  /// Served-request counts indexed by RequestKind. Plain atomics, not
  /// registry counters: this is on the per-request hot path, where a
  /// string-keyed map lookup would dominate the whole observe cost.
  std::atomic<long> kind_counts_[4] = {};

  std::mutex events_mutex_;
  std::ofstream events_out_;

  std::mutex series_mutex_;
  double window_start_ = 0.0;
  long window_requests_ = 0;
  long window_cache_hits_ = 0;
};

}  // namespace xlp::svc
