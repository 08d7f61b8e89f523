// Open-loop load generator for the serve workload.
//
// Drives a running rlbench_serve (started by run.py with --drift) over
// loopback from one thread and --connections connections. Every
// request is a match_batch of --pairs_per_request pairs drawn from the
// task's test split; send times follow a seeded paced schedule, and each
// request's latency is timed from its due time, so a stall also charges
// the requests queued behind it. Phases: a fixed low rate, a fixed high
// rate, then a geometric bisection for the highest rate whose p99 meets
// --limit_ms with no growing backlog.
//
// Every response is checked bit for bit against TrainedModel::ScoreBatch
// of a model built the same way in this process.
//
// With --trace=1 the same request stream is also replayed in-process
// through MatchService::Submit/PumpOne (untraced, then traced), the
// batches are scored directly through ScoreBatch, and
// drift::ComputeWindowMeasures is timed on window-sized samples: the
// per-layer split of the served latency.
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "drift/monitor.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rlbench::Flags;
namespace serve = rlbench::serve;
namespace matchers = rlbench::matchers;
namespace drift = rlbench::drift;
using rlbench::data::LabeledPair;

struct Request {
  std::vector<uint32_t> pairs;  // indices into the test split
  double due_s = 0.0;           // offset from the phase start
  std::string frame;            // length-prefixed payload
};

struct Sample {
  double due_s = 0.0;
  // Offsets from the phase clock. A closed-loop phase sends before the
  // clock's 2 ms lead-in ends, so an offset may be negative; `sent` and
  // `answered` say whether it was set.
  double sent_s = 0.0;
  double recv_s = 0.0;
  bool sent = false;
  bool answered = false;
  std::string payload;  // response JSON
  bool verified = false;
};

struct PhaseResult {
  std::string name;
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<Sample> samples;
  size_t verified = 0;  // responses ok and bit-equal to the reference
  size_t rejected = 0;  // error responses (e.g. queue full)
  std::string first_error;  // the first error response, for the run details
  size_t wrong = 0;     // ok responses whose scores differ from the reference
  size_t unanswered = 0;
  size_t backlog_at_end = 0;  // requests due but unanswered when sending stopped
};

/// The served task, the reference model and its expected test-split scores.
struct Reference {
  std::unique_ptr<rlbench::data::MatchingTask> task;
  std::unique_ptr<matchers::MatchingContext> context;
  std::shared_ptr<const matchers::TrainedModel> model;
  std::vector<double> scores;
  std::vector<uint8_t> decisions;
  double train_s = 0.0;
};

Reference BuildReference(const std::string& dataset, double scale,
                         const std::string& matcher) {
  Reference ref;
  const auto* spec = rlbench::datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    std::exit(2);
  }
  // Exactly what rlbench_serve_main does, so every score must agree.
  ref.task = std::make_unique<rlbench::data::MatchingTask>(
      rlbench::datagen::BuildExistingBenchmark(*spec, scale));
  ref.context = std::make_unique<matchers::MatchingContext>(ref.task.get());
  auto start = Clock::now();
  auto model = matchers::TrainServableMatcher(matcher, *ref.context);
  ref.train_s = SecondsSince(start);
  if (!model.ok()) {
    std::fprintf(stderr, "train: %s\n", model.status().ToString().c_str());
    std::exit(1);
  }
  ref.model = std::shared_ptr<const matchers::TrainedModel>(std::move(*model));
  ref.model->PrepareContext(*ref.context);
  const auto& test = ref.task->test();
  ref.scores.assign(test.size(), 0.0);
  ref.decisions.assign(test.size(), 0);
  rlbench::Status st = ref.model->ScoreBatch(*ref.context, test, ref.scores, ref.decisions);
  if (!st.ok()) {
    std::fprintf(stderr, "reference scoring: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return ref;
}

std::vector<Request> Schedule(const Reference& ref, double rate, double duration_s,
                              size_t pairs_per_request, uint64_t seed) {
  rlbench::Rng rng(seed);
  std::vector<Request> requests;
  const size_t test_size = ref.task->test().size();
  // Paced arrivals: request i is due at (i + u_i) / rate with u_i drawn
  // uniformly from [0, 1). Seeded like Poisson arrivals, but without their
  // bursts, which would add schedule variance to every tail percentile.
  const size_t count = static_cast<size_t>(rate * duration_s);
  for (size_t i = 0; i < count; ++i) {
    Request req;
    req.due_s = (static_cast<double>(i) + rng.Uniform()) / rate;
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (size_t k = 0; k < pairs_per_request; ++k) {
      uint32_t idx = static_cast<uint32_t>(rng.Index(test_size));
      req.pairs.push_back(idx);
      const LabeledPair& p = ref.task->test()[idx];
      pairs.emplace_back(p.left, p.right);
    }
    if (!serve::AppendFrame(serve::MatchClient::MatchBatchRequest(pairs), &req.frame).ok()) {
      std::fprintf(stderr, "frame too large\n");
      std::exit(1);
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

struct Connection {
  int fd = -1;
  std::string out;       // bytes not yet written
  std::deque<std::pair<size_t, size_t>> unsent;  // (bytes left through request, request)
  std::deque<size_t> inflight;  // requests written, response pending (FIFO)
  serve::FrameDecoder decoder;
};

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

double Now(Clock::time_point t0) { return SecondsSince(t0); }

/// Write as much pending output as the socket takes; stamp the send time
/// of every request whose last byte left.
bool Flush(Connection* conn, std::vector<Sample>* samples, Clock::time_point t0) {
  while (!conn->out.empty()) {
    ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn->out.erase(0, static_cast<size_t>(n));
    size_t written = static_cast<size_t>(n);
    double now = Now(t0);
    while (!conn->unsent.empty() && written > 0) {
      auto& [left, id] = conn->unsent.front();
      size_t take = std::min(left, written);
      left -= take;
      written -= take;
      if (left == 0) {
        (*samples)[id].sent_s = now;
        (*samples)[id].sent = true;
        conn->inflight.push_back(id);
        conn->unsent.pop_front();
      }
    }
  }
  return true;
}

/// How long a phase waits for responses after its last due time.
constexpr double kDrainSeconds = 3.0;

/// Run one open-loop phase. Returns after every response arrived or
/// kDrainSeconds after the last due time.
PhaseResult RunPhase(const std::string& name, double rate, double duration_s,
                     std::vector<Request>& requests, std::vector<Connection>& conns,
                     size_t depth = 0) {
  PhaseResult result;
  result.name = name;
  result.rate = rate;
  result.duration_s = duration_s;
  result.samples.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) result.samples[i].due_s = requests[i].due_s;

  std::vector<pollfd> fds(conns.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  size_t next = 0, answered = 0;
  bool backlog_taken = false;
  char buf[65536];
  while (answered < requests.size()) {
    double now = Now(t0);
    // Open loop: release each request at its due time. Closed loop
    // (depth > 0): release while fewer than `depth` are outstanding; a
    // request is then due when it is released.
    while (next < requests.size() &&
           (depth > 0 ? next - answered < depth : requests[next].due_s <= now)) {
      if (depth > 0) requests[next].due_s = result.samples[next].due_s = now;
      Connection& conn = conns[next % conns.size()];
      conn.out += requests[next].frame;
      conn.unsent.emplace_back(requests[next].frame.size(), next);
      ++next;
    }
    for (Connection& conn : conns) {
      if (!Flush(&conn, &result.samples, t0)) {
        std::fprintf(stderr, "send failed: %s\n", std::strerror(errno));
        std::exit(1);
      }
    }
    if (next == requests.size()) {
      if (!backlog_taken) {
        backlog_taken = true;
        result.backlog_at_end = requests.size() - answered;
      }
      if (now > requests.back().due_s + kDrainSeconds) break;
    }
    // Open loop: spin rather than sleep, since a sleeping generator adds
    // its own wake-up time to every latency it records and falls behind
    // its schedule. Closed loop: nothing is due until a response arrives,
    // so block on the sockets and leave the cores to the server.
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = POLLIN | (conns[c].out.empty() ? 0 : POLLOUT);
      fds[c].revents = 0;
    }
    int ready = ::poll(fds.data(), fds.size(), depth > 0 ? 10 : 0);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "poll: %s\n", std::strerror(errno));
      std::exit(1);
    }
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[c];
      while (true) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "connection %zu closed by the server\n", c);
        std::exit(1);
      }
      double recv_now = Now(t0);
      while (true) {
        auto frame = conn.decoder.Next();
        if (!frame.ok()) {
          std::fprintf(stderr, "bad frame: %s\n", frame.status().ToString().c_str());
          std::exit(1);
        }
        if (!frame->has_value()) break;
        if (conn.inflight.empty()) {
          std::fprintf(stderr, "response without a request\n");
          std::exit(1);
        }
        size_t id = conn.inflight.front();
        conn.inflight.pop_front();
        result.samples[id].recv_s = recv_now;
        result.samples[id].answered = true;
        result.samples[id].payload = std::move(**frame);
        ++answered;
      }
    }
  }
  result.unanswered = requests.size() - answered;
  if (!backlog_taken) result.backlog_at_end = 0;
  // Responses still in flight would desynchronise the next phase.
  if (result.unanswered > 0) {
    std::fprintf(stderr, "phase %s: %zu requests unanswered after drain\n", name.c_str(),
                 result.unanswered);
    std::exit(1);
  }
  return result;
}

/// Check every response against the reference scores, bit for bit.
void Verify(const Reference& ref, const std::vector<Request>& requests, PhaseResult* phase) {
  size_t ok = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Sample& s = phase->samples[i];
    if (!s.answered) continue;
    auto parsed = serve::ParseJson(s.payload);
    if (parsed.ok() && !parsed->GetBool("ok") && parsed->Find("code") != nullptr) {
      if (phase->rejected++ == 0) phase->first_error = s.payload;
      continue;
    }
    const serve::JsonValue* scores = parsed.ok() ? parsed->Find("scores") : nullptr;
    const serve::JsonValue* decisions = parsed.ok() ? parsed->Find("decisions") : nullptr;
    if (scores == nullptr || decisions == nullptr ||
        scores->AsArray().size() != requests[i].pairs.size() ||
        decisions->AsArray().size() != requests[i].pairs.size()) {
      ++phase->wrong;
      continue;
    }
    const auto& sv = scores->AsArray();
    const auto& dv = decisions->AsArray();
    bool equal = true;
    for (size_t k = 0; k < sv.size() && equal; ++k) {
      uint32_t idx = requests[i].pairs[k];
      double got = sv[k].AsNumber();
      equal = std::memcmp(&got, &ref.scores[idx], sizeof(double)) == 0 &&
              (dv[k].AsNumber() != 0.0) == (ref.decisions[idx] != 0);
    }
    if (equal) {
      ++ok;
      phase->samples[i].verified = true;
    } else {
      ++phase->wrong;
    }
  }
  phase->verified = ok;
}

std::string CallOnce(int fd, const std::string& payload) {
  std::string frame;
  if (!serve::AppendFrame(payload, &frame).ok()) return "";
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return "";
    off += static_cast<size_t>(n);
  }
  serve::FrameDecoder decoder;
  char buf[65536];
  while (true) {
    auto next = decoder.Next();
    if (!next.ok()) return "";
    if (next->has_value()) {
      ::fcntl(fd, F_SETFL, flags);
      return **next;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return "";
    decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
  }
}

std::string PhaseJson(const PhaseResult& phase, bool pass, double limit_ms) {
  // Latencies of verified responses only: a rejected or wrong response
  // counts as a miss of any limit, never as a fast sample.
  std::vector<double> latency_ms, late_ms;
  size_t good = 0;
  for (const Sample& s : phase.samples) {
    double ms = (s.recv_s - s.due_s) * 1000.0;
    if (s.verified) latency_ms.push_back(ms);
    if (s.verified && ms <= limit_ms) ++good;
    if (s.sent) late_ms.push_back((s.sent_s - s.due_s) * 1000.0);
  }
  return JsonObject()
      .String("name", phase.name)
      .Number("rate", phase.rate)
      .Number("duration_s", phase.duration_s)
      .Int("attempted", static_cast<int64_t>(phase.samples.size()))
      .Int("verified", static_cast<int64_t>(phase.verified))
      .Int("rejected", static_cast<int64_t>(phase.rejected))
      .Int("wrong", static_cast<int64_t>(phase.wrong))
      .Int("backlog_at_end", static_cast<int64_t>(phase.backlog_at_end))
      .Bool("pass", pass)
      .Number("good_frac", phase.samples.empty()
                               ? 0.0
                               : static_cast<double>(good) /
                                     static_cast<double>(phase.samples.size()))
      .Number("limit_ms", limit_ms)
      .Numbers("latency_ms", latency_ms, 4)
      .Numbers("late_ms", late_ms, 4)
      .Close();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// A search step passes when every request verified, the p99 meets the
/// limit, and the backlog when sending stopped is no larger than what the
/// limit's worth of arrivals (plus one per connection) explains.
bool StepPasses(const PhaseResult& phase, double limit_ms, size_t connections) {
  if (phase.verified != phase.samples.size()) return false;
  std::vector<double> latency_ms;
  for (const Sample& s : phase.samples) latency_ms.push_back((s.recv_s - s.due_s) * 1000.0);
  if (latency_ms.size() < 1000 || Percentile(latency_ms, 0.99) > limit_ms) return false;
  double allowed = phase.rate * limit_ms / 1000.0 + static_cast<double>(connections);
  return static_cast<double>(phase.backlog_at_end) <= allowed;
}

// --- traced in-process replay ------------------------------------------------

std::string ReplayJson(const Reference& ref, const std::vector<const std::vector<Request>*>& streams,
                       size_t window_pairs, const std::string& trace_path) {
  std::vector<std::vector<LabeledPair>> batches;
  std::vector<const Request*> origin;
  for (const auto* stream : streams) {
    for (const Request& req : *stream) {
      std::vector<LabeledPair> batch;
      for (uint32_t idx : req.pairs) batch.push_back(ref.task->test()[idx]);
      batches.push_back(std::move(batch));
      origin.push_back(&req);
    }
  }
  // Service replay: one request in flight, Submit then PumpOne, timed from
  // Submit to the response callback. Untraced first, then traced.
  auto replay = [&](bool traced, std::vector<double>* service_ms, size_t* mismatches,
                    uint64_t* windows, uint64_t* triggers) {
    rlbench::obs::SetTraceFile(traced ? trace_path : "");
    rlbench::obs::Metrics::SetEnabled(traced);
    serve::MatchServiceOptions options;
    options.drift_enabled = true;
    serve::MatchService service(ref.context.get(), options);
    if (!service.SwapModel(ref.model).ok()) {
      std::fprintf(stderr, "replay: model install failed\n");
      std::exit(1);
    }
    auto start = Clock::now();
    for (size_t b = 0; b < batches.size(); ++b) {
      Clock::time_point done;
      std::vector<rlbench::serve::PairScore> got;
      auto submit_at = Clock::now();
      auto id = service.Submit(batches[b], [&](const serve::RequestOutcome& outcome) {
        done = Clock::now();
        got = outcome.results;
      });
      if (!id.ok()) {
        ++*mismatches;
        continue;
      }
      while (service.PumpOne() == 0) {
      }
      service_ms->push_back(std::chrono::duration<double>(done - submit_at).count() * 1000.0);
      if (got.size() != origin[b]->pairs.size()) ++*mismatches;
      for (size_t k = 0; k < got.size() && k < origin[b]->pairs.size(); ++k) {
        double expected = ref.scores[origin[b]->pairs[k]];
        if (std::memcmp(&got[k].score, &expected, sizeof(double)) != 0) ++*mismatches;
      }
    }
    double wall = SecondsSince(start);
    serve::DriftStatus status = service.DriftSnapshot();
    *windows = status.windows;
    *triggers = status.triggers;
    return wall;
  };
  std::vector<double> untraced_ms, traced_ms;
  size_t mismatches = 0;
  uint64_t windows = 0, triggers = 0, tw = 0, tt = 0;
  double untraced_wall = replay(false, &untraced_ms, &mismatches, &windows, &triggers);
  double traced_wall = replay(true, &traced_ms, &mismatches, &tw, &tt);
  rlbench::obs::WriteTraceIfEnabled();
  rlbench::obs::SetTraceFile("");
  rlbench::obs::Metrics::SetEnabled(false);

  // ScoreBatch alone on the same batches.
  std::vector<double> score_ms;
  size_t score_mismatches = 0;
  for (const auto* stream : streams) {
    for (const Request& req : *stream) {
      std::vector<LabeledPair> batch;
      for (uint32_t idx : req.pairs) batch.push_back(ref.task->test()[idx]);
      std::vector<double> scores(batch.size());
      std::vector<uint8_t> decisions(batch.size());
      auto start = Clock::now();
      rlbench::Status st = ref.model->ScoreBatch(*ref.context, batch, scores, decisions);
      score_ms.push_back(SecondsSince(start) * 1000.0);
      for (size_t k = 0; k < batch.size(); ++k) {
        if (!st.ok() || std::memcmp(&scores[k], &ref.scores[req.pairs[k]], sizeof(double)) != 0) {
          ++score_mismatches;
        }
      }
    }
  }

  // Drift recompute on window-sized samples of the same stream.
  std::vector<drift::ScoredSample> samples;
  for (const auto* stream : streams) {
    for (const Request& req : *stream) {
      for (uint32_t idx : req.pairs) {
        samples.push_back({ref.task->test()[idx], ref.scores[idx], ref.decisions[idx]});
      }
    }
  }
  std::vector<double> recompute_ms;
  for (size_t begin = 0; begin + window_pairs <= samples.size() && recompute_ms.size() < 15;
       begin += window_pairs) {
    auto start = Clock::now();
    drift::WindowMeasures measures = drift::ComputeWindowMeasures(
        *ref.context, std::span<const drift::ScoredSample>(samples.data() + begin, window_pairs));
    recompute_ms.push_back(SecondsSince(start) * 1000.0);
    if (measures.pairs != window_pairs) ++score_mismatches;
  }

  return JsonObject()
      .Numbers("service_ms", untraced_ms, 4)
      .Numbers("traced_service_ms", traced_ms, 4)
      .Number("untraced_wall_s", untraced_wall)
      .Number("traced_wall_s", traced_wall)
      .Int("replay_errors", static_cast<int64_t>(mismatches))
      .Int("replay_windows", static_cast<int64_t>(windows))
      .Int("replay_triggers", static_cast<int64_t>(triggers + tt))
      .Numbers("score_ms", score_ms, 5)
      .Int("score_mismatches", static_cast<int64_t>(score_mismatches))
      .Numbers("recompute_ms", recompute_ms, 4)
      .Close();
}

}  // namespace

int RunLoadgen(const Flags& flags) {
  // run.py passes every setting; a missing one is a caller bug.
  for (const char* name :
       {"port", "seed", "trace", "out", "dataset", "scale", "matcher", "connections",
        "pairs_per_request", "low_rate", "high_rate", "phase_requests", "limit_ms",
        "search_lo", "search_hi", "search_steps", "step_requests", "bursts",
        "burst_requests", "burst_depth"}) {
    if (!flags.Has(name)) {
      std::fprintf(stderr, "loadgen: missing --%s\n", name);
      return 2;
    }
  }
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string out_path = flags.GetString("out", "");
  const std::string dataset = flags.GetString("dataset", "");
  const double scale = flags.GetDouble("scale", 0.0);
  const std::string matcher = flags.GetString("matcher", "");
  const size_t connections = static_cast<size_t>(flags.GetInt("connections", 0));
  const size_t pairs_per_request = static_cast<size_t>(flags.GetInt("pairs_per_request", 0));
  const double low_rate = flags.GetDouble("low_rate", 0.0);
  const double high_rate = flags.GetDouble("high_rate", 0.0);
  // Requests per fixed-rate phase (its length is this over the rate).
  const double phase_requests = flags.GetDouble("phase_requests", 0.0);
  const double limit_ms = flags.GetDouble("limit_ms", 0.0);
  const double search_lo = flags.GetDouble("search_lo", 0.0);
  const double search_hi = flags.GetDouble("search_hi", 0.0);
  const int search_steps = static_cast<int>(flags.GetInt("search_steps", 0));
  // Each search step sends this many requests, so every step's p99 has
  // at least 10 samples beyond it whatever its rate.
  const double step_requests = flags.GetDouble("step_requests", 0.0);
  const int bursts = static_cast<int>(flags.GetInt("bursts", 0));
  const double burst_requests = flags.GetDouble("burst_requests", 0.0);
  const size_t burst_depth = static_cast<size_t>(flags.GetInt("burst_depth", 0));
  // The server's drift window: rlbench_serve --drift keeps the defaults.
  const size_t window_pairs = drift::ReservoirOptions{}.window_pairs;

  const char* env_trace = std::getenv("RLBENCH_TRACE");
  const std::string trace_path = env_trace != nullptr ? env_trace : "";
  rlbench::obs::SetTraceFile("");
  rlbench::obs::Metrics::SetEnabled(false);

  const double calib_start_ms = CalibrationMs();
  Reference ref = BuildReference(dataset, scale, matcher);

  std::vector<Connection> conns(connections);
  for (Connection& conn : conns) {
    conn.fd = Connect(port);
    if (conn.fd < 0) {
      std::fprintf(stderr, "cannot connect to port %u\n", port);
      return 1;
    }
  }

  std::vector<std::string> phase_json;
  uint64_t stream = 0;
  auto run = [&](const std::string& name, double rate, double seconds,
                 std::vector<Request>* keep) {
    std::vector<Request> requests =
        Schedule(ref, rate, seconds, pairs_per_request, rlbench::SplitSeed(seed, stream++));
    PhaseResult phase = RunPhase(name, rate, seconds, requests, conns);
    Verify(ref, requests, &phase);
    if (keep != nullptr) *keep = requests;
    return phase;
  };

  // Untraced run: `bursts` closed-loop bursts of burst_requests with
  // burst_depth outstanding (the end-to-end metrics).
  // Traced run: the open-loop phases and the in-process replay (the
  // per-layer metrics).
  std::vector<Request> low_requests, high_requests;
  bool floor_pass = false, ceil_pass = false;
  if (!trace) {
    for (int b = 0; b < bursts; ++b) {
      std::vector<Request> requests =
          Schedule(ref, burst_requests, 1.0, pairs_per_request, rlbench::SplitSeed(seed, stream++));
      const auto burst_start = Clock::now();
      PhaseResult burst = RunPhase("burst", 0.0, 0.0, requests, conns, burst_depth);
      const double burst_s = SecondsSince(burst_start);
      Verify(ref, requests, &burst);
      phase_json.push_back(JsonObject()
                               .String("name", "burst")
                               .Number("seconds", burst_s)
                               .Int("attempted", static_cast<int64_t>(burst.samples.size()))
                               .Int("verified", static_cast<int64_t>(burst.verified))
                               .Int("rejected", static_cast<int64_t>(burst.rejected))
                               .String("first_error", burst.first_error)
                               .Int("wrong", static_cast<int64_t>(burst.wrong))
                               .Close());
    }
  } else {
    PhaseResult low = run("low", low_rate, phase_requests / low_rate, &low_requests);
    phase_json.push_back(PhaseJson(low, true, limit_ms));
    PhaseResult high = run("high", high_rate, phase_requests / high_rate, &high_requests);
    phase_json.push_back(PhaseJson(high, true, limit_ms));

    // Geometric bisection between a floor that must pass and a ceiling
    // that must fail; run.py interpolates the crossing from the bracketing
    // steps. A rate fails only when two probes in a row fail: one host
    // stall inside a short probe is not the server's sustainable rate.
    auto probe = [&](double rate) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        PhaseResult step = run("search", rate, step_requests / rate, nullptr);
        bool pass = StepPasses(step, limit_ms, connections);
        phase_json.push_back(PhaseJson(step, pass, limit_ms));
        if (pass) return true;
      }
      return false;
    };
    double lo = search_lo, hi = search_hi;
    floor_pass = probe(lo);
    ceil_pass = probe(hi);
    if (floor_pass && !ceil_pass) {
      for (int i = 0; i < search_steps; ++i) {
        double mid = std::sqrt(lo * hi);
        (probe(mid) ? lo : hi) = mid;
      }
    }
  }

  std::string stats = CallOnce(conns[0].fd, "{\"op\":\"stats\"}");
  for (Connection& conn : conns) ::close(conn.fd);

  std::string replay = "null";
  if (trace) replay = ReplayJson(ref, {&low_requests, &high_requests}, window_pairs, trace_path);
  const double calib_end_ms = CalibrationMs();

  JsonObject result;
  result.String("workload", "serve")
      .Int("seed", static_cast<int64_t>(seed))
      .Int("threads", static_cast<int64_t>(rlbench::ParallelThreadCount()))
      .Number("train_s", ref.train_s)
      .Int("test_pairs", static_cast<int64_t>(ref.task->test().size()))
      .Raw("phases", JsonArray(phase_json))
      .Bool("floor_pass", floor_pass)
      .Bool("ceiling_pass", ceil_pass)
      .Raw("stats", stats.empty() ? "null" : stats)
      .Raw("replay", replay)
      .Numbers("calib_ms", {calib_start_ms, calib_end_ms})
      .Number("peak_rss_mb", PeakRssMb());
  if (!WriteFile(out_path, result.Close())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
