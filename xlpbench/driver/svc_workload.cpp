// svc_zipf: closed-loop `xlpd --socket` sessions. Two svc::SocketClient
// connections each wait for their reply before sending the next request;
// the server runs with two connection workers, latency histograms and cache
// verification on. Every session sends the same fixed, seeded,
// Zipf-distributed stream of requests to a fresh server over an empty
// cache directory, so it executes each distinct request once and serves
// the rest as cache or in-flight dedup hits.
//
// Each run starts with one session configured like `xlpd --socket` by
// default, ledger on. It is checked, but not timed: the ledger's two fsyncs
// per request make its wall time follow the host's disk, which moves it by
// more than any bound. The timed sessions run with the ledger off
// (`--no-ledger`). The traced run reports the ledger session's ledger and
// execution costs as per-layer metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/canonical.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "runctl/control.hpp"
#include "spans.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "topo/row_topology.hpp"
#include "util/rng.hpp"

namespace xlpbench {

namespace fs = std::filesystem;
using xlp::obs::Json;

namespace {

constexpr int kPoolSize = 200;
constexpr int kRequests = 2000;
constexpr double kZipfExponent = 2.0;
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr int kMaxRetries = 3;

/// The request pool, most popular first: alternating D&C_SA solves and
/// analytic evaluations over every C that divides the 256-bit base flit.
/// The mesh size follows the rank (n = 8, 12, 16 in turn for each kind), so
/// every seed asks for the same mix of sizes at the same popularity and
/// seeds differ in C, solver seeds, patterns and loads, not in how much
/// work the popular requests are. Evaluations are made distinct by their
/// offered load.
std::vector<xlp::svc::Request> make_pool(xlp::Rng& rng) {
  static const char* const kPatterns[] = {"uniform_random", "transpose",
                                          "tornado", "neighbor"};
  static const double kContention[] = {0.0, 0.25, 0.5, 1.0};
  std::vector<xlp::svc::Request> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    xlp::svc::Request r;
    r.n = 8 + 4 * ((i / 2) % 3);
    std::vector<int> limits;
    for (const int c : xlp::topo::valid_link_limits(r.n))
      if (r.base_flit_bits % c == 0) limits.push_back(c);
    r.link_limit = limits[rng.uniform_below(limits.size())];
    if (i % 2 == 0) {
      r.kind = xlp::svc::RequestKind::kSolve;
      r.method = "dcsa";
      r.moves = 2000;
      r.seed = rng.uniform_below(1u << 30);  // exact through a JSON double
    } else {
      r.kind = xlp::svc::RequestKind::kEvaluate;
      r.workload = kPatterns[rng.uniform_below(4)];
      r.contention_per_hop = kContention[rng.uniform_below(4)];
      r.load = 0.01 + 0.0001 * i;
    }
    pool.push_back(std::move(r));
  }
  return pool;
}

/// Pool indices of the session's requests in a seeded order. Each rank
/// appears its Zipf(kZipfExponent) share of kRequests times, rounded by
/// largest remainder, so every seed sends the same number of requests per
/// rank and the same number of distinct requests; only the order differs.
std::vector<int> make_stream(xlp::Rng& rng) {
  std::vector<double> weights;
  double total = 0.0;
  for (int rank = 1; rank <= kPoolSize; ++rank)
    total += weights.emplace_back(1.0 / std::pow(rank, kZipfExponent));
  std::vector<int> counts;
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int k = 0; k < kPoolSize; ++k) {
    const double share =
        kRequests * weights[static_cast<std::size_t>(k)] / total;
    counts.push_back(static_cast<int>(share));
    assigned += counts.back();
    remainders.emplace_back(share - counts.back(), k);
  }
  // Largest remainder first; ties go to the more popular rank.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (int i = 0; assigned < kRequests; ++i, ++assigned)
    ++counts[static_cast<std::size_t>(remainders[static_cast<std::size_t>(i)]
                                          .second)];
  std::vector<int> stream;
  for (int k = 0; k < kPoolSize; ++k)
    stream.insert(stream.end(), static_cast<std::size_t>(counts[k]), k);
  for (std::size_t i = stream.size(); i > 1; --i)  // Fisher-Yates
    std::swap(stream[i - 1], stream[rng.uniform_below(i)]);
  return stream;
}

/// Owns the thread running Server::run_socket: cancelling the server's
/// token ends the accept loop, which then drains the open connections.
class Acceptor {
 public:
  Acceptor(xlp::runctl::CancelToken& cancel, std::function<void()> loop)
      : cancel_(cancel), thread_(std::move(loop)) {}
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;
  ~Acceptor() {
    cancel_.request(xlp::runctl::RunStatus::kInterrupted);
    thread_.join();
  }

 private:
  xlp::runctl::CancelToken& cancel_;
  std::thread thread_;
};

struct Session {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> rtt_s;            ///< per request, both clients
  std::vector<std::string> replies;     ///< by stream position
  std::vector<char> transport_failed;   ///< by stream position
  long retries = 0;
  long executed = 0;
  Json stats = Json::object();          ///< Server::stats_snapshot()
  long ledger_bytes = 0;
};

/// One closed-loop session against a fresh server over an empty
/// `dir`/cache. With `ledger` the session writes `dir`/ledger.jsonl from
/// scratch. The server and its socket are torn down before returning; the
/// files stay for the traced run's measurements.
Session run_session(const std::string& dir, bool ledger,
                    const std::vector<std::string>& texts,
                    const std::vector<std::string>& ids) {
  Session s;
  fs::remove_all(dir + "/cache");
  if (ledger) fs::remove(dir + "/ledger.jsonl");
  fs::create_directories(dir);
  const std::string socket_path = dir + "/xlpd.sock";
  fs::remove(socket_path);  // so the wait below sees this server's bind
  s.replies.assign(texts.size(), std::string());
  s.transport_failed.assign(texts.size(), 0);

  const auto setup_start = Clock::now();
  xlp::runctl::CancelToken cancel;
  xlp::obs::MetricsRegistry registry;
  xlp::svc::ServerOptions options;
  options.cache_dir = dir + "/cache";
  options.threads = kServerWorkers;
  options.cancel = &cancel;
  if (ledger) options.ledger_path = dir + "/ledger.jsonl";
  options.metrics = &registry;
  std::optional<xlp::svc::Server> server;
  {
    const Span span("svc.server_build");
    server.emplace(options);
  }
  std::atomic<bool> listening{true};
  // Declared before the clients, so on every exit path the connections
  // close first, then the accept loop is cancelled and joined.
  const Acceptor acceptor(
      cancel, [&] { listening = server->run_socket(socket_path); });
  const xlp::svc::RetryPolicy connect_retry{40, 0.5, 5.0, 1};
  std::vector<std::unique_ptr<xlp::svc::SocketClient>> clients;
  {
    const Span span("svc.bind_connect");
    while (listening && !fs::exists(socket_path))
      std::this_thread::yield();
    for (int c = 0; c < kClients; ++c)
      clients.push_back(std::make_unique<xlp::svc::SocketClient>(
          socket_path, connect_retry));
  }
  s.setup_s = seconds_since(setup_start);

  std::vector<std::vector<double>> rtts(kClients);
  std::atomic<long> retries{0};
  const auto client_loop = [&](int c) {
    for (std::size_t i = static_cast<std::size_t>(c); i < texts.size();
         i += kClients) {
      for (int attempt = 0;; ++attempt) {
        std::optional<std::string> reply;
        const auto start = Clock::now();
        {
          const Span span("svc.round_trip", ids[i]);
          reply = clients[static_cast<std::size_t>(c)]->submit(texts[i]);
        }
        if (reply) {
          rtts[static_cast<std::size_t>(c)].push_back(seconds_since(start));
          s.replies[i] = std::move(*reply);
          break;
        }
        if (attempt == kMaxRetries) {
          s.transport_failed[i] = 1;
          break;
        }
        ++retries;  // reconnect and resend: the server dedups by content id
        clients[static_cast<std::size_t>(c)] =
            std::make_unique<xlp::svc::SocketClient>(socket_path,
                                                     connect_retry);
      }
    }
  };
  const auto session_start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 1; c < kClients; ++c) threads.emplace_back(client_loop, c);
    client_loop(0);
  }
  s.wall_s = seconds_since(session_start);

  s.stats = server->stats_snapshot();
  s.executed = registry.counter("svc.executed");
  s.retries = retries;
  if (ledger)
    s.ledger_bytes = static_cast<long>(fs::file_size(options.ledger_path));
  for (auto& r : rtts) s.rtt_s.insert(s.rtt_s.end(), r.begin(), r.end());
  return s;
}

/// Checks every reply of a session against the payload execute_request
/// gives for its id: no error replies, no transport failures, and every
/// distinct id executed exactly once. Each failed request counts once.
void check_session(Outcome& out, const Session& s,
                   const std::vector<std::string>& ids,
                   const std::map<std::string, std::string>& expected) {
  const long executions = static_cast<long>(expected.size());
  out.attempted += static_cast<long>(ids.size());
  out.failed += s.retries;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (s.transport_failed[i]) {
      out.fail("svc_zipf: transport failure on request " + ids[i]);
      continue;
    }
    const std::string head = "{\"schema\":\"xlp-reply/1\",\"request_id\":\"" +
                             ids[i] + "\",\"cache_hit\":";
    const std::string& reply = s.replies[i];
    std::size_t at = std::string::npos;
    if (reply.rfind(head, 0) == 0) {
      const std::size_t flag = head.size();
      for (const char* tail : {"true,\"result\":", "false,\"result\":"})
        if (reply.compare(flag, std::char_traits<char>::length(tail), tail) ==
            0)
          at = flag + std::char_traits<char>::length(tail);
    }
    if (at == std::string::npos || reply.back() != '}') {
      out.fail("svc_zipf: error or malformed reply for " + ids[i] + ": " +
               reply.substr(0, 200));
      continue;
    }
    if (reply.compare(at, reply.size() - 1 - at, expected.at(ids[i])) != 0)
      out.fail("svc_zipf: reply payload for " + ids[i] +
               " differs from execute_request");
  }
  if (s.executed != executions)
    out.fail("svc_zipf: executed " + std::to_string(s.executed) +
             " requests, expected " + std::to_string(executions));
}

double histogram_p50_us(const Json& stats, const char* which) {
  const Json* latency = stats.find("latency");
  const Json* hist = latency != nullptr ? latency->find(which) : nullptr;
  const Json* p50 = hist != nullptr ? hist->find("p50") : nullptr;
  return p50 != nullptr ? p50->as_number() / 1e3 : 0.0;
}

}  // namespace

Outcome svc_zipf(const Options& opt) {
  using namespace xlp;
  Rng rng(static_cast<std::uint64_t>(opt.variant));
  const std::vector<svc::Request> pool = make_pool(rng);
  const std::vector<int> stream = make_stream(rng);
  std::vector<std::string> texts;
  std::vector<std::string> ids;
  for (const int k : stream) {
    texts.push_back(pool[static_cast<std::size_t>(k)].to_json().dump());
    ids.push_back(pool[static_cast<std::size_t>(k)].id());
  }

  // The reference answer for every distinct id, straight from the executor.
  Outcome out;
  std::map<std::string, std::string> expected;
  double execute_s = 0.0;
  for (const int k : stream) {
    const svc::Request& r = pool[static_cast<std::size_t>(k)];
    const std::string id = r.id();
    if (expected.count(id) != 0) continue;
    execute_s +=
        timed([&] { expected[id] = svc::execute_request(r, nullptr).dump(); });
  }
  std::string digest_input;
  for (const auto& [id, payload] : expected)
    digest_input += id + "\n" + payload + "\n";
  const Json observed =
      Json::object()
          .set("distinct", static_cast<long>(expected.size()))
          .set("payload_digest", obs::fnv1a64_hex(digest_input));
  if (opt.emit_golden) {
    out.golden_record = observed;
    return out;
  }
  check_golden(out, opt, observed, "svc_zipf");

  const std::string dir = opt.work_dir + "/svc";
  const Session ledgered = run_session(dir, true, texts, ids);
  check_session(out, ledgered, ids, expected);
  const auto session = [&] {
    Session s = run_session(dir, false, texts, ids);
    check_session(out, s, ids, expected);
    return s;
  };

  if (!opt.trace) {
    // An iteration is one whole session: what a caller of a freshly started
    // `xlpd --socket --no-ledger` waits for to get all 2,000 answers.
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> rtts;
    const auto start = Clock::now();
    while (walls.size() < 3 || seconds_since(start) < opt.seconds) {
      const Session s = session();
      setups.push_back(s.setup_s);
      walls.push_back(s.wall_s);
      rtts.insert(rtts.end(), s.rtt_s.begin(), s.rtt_s.end());
    }
    fs::remove_all(dir);
    out.set("wall_s", floor_time(walls), "s");
    out.set("setup_s", floor_time(setups), "s");
    out.set("throughput_per_s",
            static_cast<double>(kRequests) / floor_time(walls), "1/s");
    out.detail.set("wall_samples_s", samples(walls));
    out.detail.set("setup_samples_s", samples(setups));
    out.detail.set("round_trip_p50_s", quantile(rtts, 0.50));
    out.detail.set("round_trip_p99_s", quantile(rtts, 0.99));
    out.detail.set("ledger_session_wall_s", ledgered.wall_s);
    return out;
  }

  // Traced: alternate untraced and traced sessions, keeping the spans of
  // the last traced one; then time the svc layer's public calls against the
  // session files.
  std::vector<double> plain;
  std::vector<double> traced;
  Session last;
  const auto start = Clock::now();
  while (plain.empty() || traced.empty() || seconds_since(start) < opt.seconds) {
    const bool trace = traced.size() < plain.size();
    if (trace) SpanRecorder::global().clear();
    SpanRecorder::global().set_enabled(trace);
    Session s = session();
    SpanRecorder::global().set_enabled(false);
    (trace ? traced : plain).push_back(s.wall_s);
    if (trace) last = std::move(s);
  }

  SpanRecorder::global().set_enabled(true);
  // Request::from_json + Request::id, as serve_text does per frame.
  const double parse_s = timed([&] {
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const Span span("svc.parse_id", ids[i]);
      const svc::Request r = svc::Request::from_json(*obs::Json::parse(texts[i]));
      if (r.id() != ids[i]) out.fail("svc_zipf: request id does not round-trip");
    }
  });
  // ResultCache::get with verification, over the session's cache.
  obs::MetricsRegistry scratch;
  svc::ResultCache cache(dir + "/cache", 4096, &scratch, true);
  const double get_s = timed([&] {
    for (const std::string& id : ids) {
      const Span span("svc.cache_get", id);
      if (!cache.get(id)) out.fail("svc_zipf: cache lost entry " + id);
    }
  });
  // One ledger append at the session's final ledger length.
  std::vector<double> appends;
  for (int i = 0; i < 5; ++i) {
    const std::string copy = dir + "/ledger_probe.jsonl";
    fs::copy_file(dir + "/ledger.jsonl", copy,
                  fs::copy_options::overwrite_existing);
    obs::LedgerEntry entry;
    entry.subcommand = "svc.evaluate";
    entry.params = pool[0].to_json();
    entry.cache_hit = 1;
    appends.push_back(timed([&] {
      const Span span("svc.ledger_append");
      if (!obs::append_ledger_entry(copy, entry))
        out.fail("svc_zipf: ledger append failed");
    }));
  }
  SpanRecorder::global().set_enabled(false);
  fs::remove_all(dir);

  zero_layers(out);
  const double requests = static_cast<double>(kRequests);
  out.set("svc.parse_id_us", parse_s * 1e6 / requests, "us");
  out.set("svc.cache_get_us", get_s * 1e6 / requests, "us");
  out.set("svc.execute_ms", execute_s * 1e3, "ms");
  out.set("svc.ledger_append_ms", median(appends) * 1e3, "ms");
  out.set("svc.ledger_bytes", static_cast<double>(ledgered.ledger_bytes),
          "bytes");
  out.set("svc.queue_wait_p50_us", histogram_p50_us(last.stats, "queue_wait"),
          "us");
  out.set("svc.execute_p50_us", histogram_p50_us(ledgered.stats, "execute"),
          "us");
  out.set("svc.end_to_end_p50_us", histogram_p50_us(last.stats, "end_to_end"),
          "us");
  out.set("svc.ledger_rtt_p50_ms", quantile(ledgered.rtt_s, 0.50) * 1e3, "ms");
  out.set("svc.cache_hit_ratio",
          1.0 - static_cast<double>(ledgered.executed) / requests, "ratio");
  out.set("svc.executed", static_cast<double>(ledgered.executed), "count");
  out.set("svc.client_retries",
          static_cast<double>(ledgered.retries + last.retries), "count");
  out.set("svc.rtt_p50_ms", quantile(last.rtt_s, 0.50) * 1e3, "ms");
  out.set("svc.rtt_p99_ms", quantile(last.rtt_s, 0.99) * 1e3, "ms");
  out.set("trace.overhead_ratio", median(traced) / median(plain) - 1.0,
          "ratio");
  out.detail.set("spans", SpanRecorder::global().to_json());
  return out;
}

}  // namespace xlpbench
