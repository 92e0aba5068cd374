// wire_small: an open loop against a live serve::JobDaemon + serve::Server on
// a unix socket, in the shipped default configuration (2 executors, 1 service
// worker per engine).  Two tenants weighted 2:1 submit trivial QFT-3 jobs
// (128 shots, distinct seeds) over 4 pipelined connections, on a seeded
// Poisson schedule at each rung of a fixed ladder of offered rates.
//
// The simulator costs microseconds here, so the serving stack — framing,
// JSON, admission analysis, journal, fair-share queue, executor -> service
// handoff — is what this workload measures.  One generator thread drives
// every connection: a parked `result wait=true` does not block its session,
// so each job pipelines submit -> ticket -> result without waiting on others.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "core/registry.hpp"
#include "json/json.hpp"
#include "probes.hpp"
#include "serve/frame.hpp"

namespace perfbench {

namespace {

namespace serve = quml::serve;

constexpr unsigned kWidth = 3;
constexpr std::int64_t kShots = 128;
constexpr int kConnections = 4;
/// The latency rung: latency_p50_ms / latency_tail_ms are read here.  Low
/// enough that a host stall of ~50 ms does not fill a tenant's 64-job lane.
constexpr double kReferenceRate = 1000.0;
constexpr double kReferenceShare = 0.3;  // of --seconds; the ladder gets the rest
/// Offered rates (jobs/s), climbed bottom-up until a rung fails: 500 jobs/s
/// times 1.1^i, i = 0..36 (up to ~15500 jobs/s).
constexpr int kLadderRungs = 37;
double ladder_rate(int i) { return std::round(500.0 * std::pow(1.1, i)); }
/// Limit on the tail latency (due -> settled) for a rung to pass.
constexpr double kTailLimitMs = 50.0;
constexpr double kWarmupSeconds = 0.5;  // at the reference rate, part of set-up
constexpr double kDrainTimeoutS = 10.0;
/// The reference rung runs as this many windows spread over the run; its
/// latency figures are medians over the windows, so one stall of a shared
/// host moves a window, not the run's figure.
constexpr std::size_t kWindows = 10;

double now_s() { return std::chrono::duration<double>(Clock::now().time_since_epoch()).count(); }

/// One job on the wire, with its due-time accounting.
struct Request {
  std::size_t conn = 0;
  std::uint64_t seed = 0;
  std::string frame;  // encoded submit request
  DueTimes t;         // due / sent / settled, absolute seconds
  double ticketed = 0.0;
  std::uint64_t ticket = 0;
  bool settled = false;
  std::string failure;    // "" = DONE and (after verify) correct
  bool wrong_output = false;  // the failure is a failed output check
  core::Counts counts;
};

core::JobBundle wire_job(std::uint64_t seed, std::size_t k) {
  return qft_job(kWidth, kShots, seed, "wire-" + std::to_string(k));
}

std::string submit_frame(const core::JobBundle& bundle) {
  json::Value request = json::Value::object();
  request.set("op", "submit");
  request.set("bundle", bundle.to_json());
  return serve::encode_frame(json::dump(request), serve::Framing::Newline);
}

/// All four connections, driven by one thread with ppoll.
class Generator {
 public:
  Generator(const std::string& socket_path, Tracer* tracer) : tracer_(tracer) {
    for (int c = 0; c < kConnections; ++c) {
      Conn conn;
      conn.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (conn.fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
      conns_.push_back(std::move(conn));
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (socket_path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + socket_path);
      std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
      if (::connect(conns_.back().fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
        throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
      ::fcntl(conns_.back().fd, F_SETFL, ::fcntl(conns_.back().fd, F_GETFL) | O_NONBLOCK);
      // Connections 0-1 speak for tenant-a (weight 2), 2-3 for tenant-b.
      const char* tenant = c < 2 ? WireStack::kTenantA : WireStack::kTenantB;
      conns_.back().out = serve::encode_frame(
          std::string("{\"op\":\"hello\",\"tenant\":\"") + tenant + "\"}", serve::Framing::Newline);
      conns_.back().fifo.push_back({Kind::Hello, 0});
    }
    std::vector<Request> none;
    pump_until(none, [&] {
      for (const Conn& c : conns_)
        if (!c.fifo.empty()) return false;
      return true;
    }, "hello");
  }
  ~Generator() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Spans around the generator's own calls go to `tracer` (null: none).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Tenant routing of request k: two of every three jobs are tenant-a's,
  /// alternating over its connections; tenant-b's alternate over theirs.
  static std::size_t conn_for(std::size_t k) {
    const std::size_t round = k / 3, slot = k % 3;
    return slot < 2 ? slot : 2 + round % 2;
  }

  /// Sends every request on its due time (absolute, ascending), answers
  /// each ticket with `result wait=true`, and returns once all settled.
  /// Backlog (daemon queued + in_flight, from the `stats` op) is read just
  /// before the first due time and right after the last request went out.
  /// False when the drain timed out; the connections then hold replies
  /// still in flight, so the caller must not reuse this generator.
  bool run(std::vector<Request>& reqs, std::int64_t& backlog_start, std::int64_t& backlog_end) {
    backlog_start = stats_roundtrip(reqs);
    by_ticket_.clear();
    std::size_t next = 0;
    bool end_stats_sent = false;
    const double deadline = (reqs.empty() ? now_s() : reqs.back().t.due) + kDrainTimeoutS;
    settled_ = 0;
    pump_until(
        reqs,
        [&] { return settled_ == reqs.size() && end_stats_sent && backlog_ != kPending; },
        [&](double now) {
          while (next < reqs.size() && reqs[next].t.due <= now) {
            Request& r = reqs[next];
            auto sp = Tracer::span_if(tracer_, "loadgen.send", next);
            Conn& c = conns_[r.conn];
            c.out += r.frame;
            c.fifo.push_back({Kind::Submit, next});
            r.t.sent = now_s();
            ++next;
          }
          if (next == reqs.size() && !end_stats_sent) {
            send_stats();
            end_stats_sent = true;
          }
          return next < reqs.size() ? reqs[next].t.due : now + 0.05;
        },
        deadline);
    bool drained = true;
    for (Request& r : reqs)
      if (!r.settled) {
        r.settled = true;
        r.failure = "no result within the drain timeout";
        drained = false;
      }
    backlog_end = backlog_ == kPending ? backlog_start : backlog_;
    return drained && backlog_ != kPending;
  }

 private:
  enum class Kind { Hello, Submit, Stats };
  struct Conn {
    int fd = -1;
    serve::FrameDecoder decoder;
    std::string out;
    std::deque<std::pair<Kind, std::size_t>> fifo;  // requests answered inline, in order
  };
  static constexpr std::int64_t kPending = -1;

  void send_stats() {
    backlog_ = kPending;
    conns_[0].out += serve::encode_frame("{\"op\":\"stats\"}", serve::Framing::Newline);
    conns_[0].fifo.push_back({Kind::Stats, 0});
  }

  std::int64_t stats_roundtrip(std::vector<Request>& reqs) {
    send_stats();
    pump_until(reqs, [&] { return backlog_ != kPending; }, "stats");
    return backlog_;
  }

  void pump_until(std::vector<Request>& reqs, const std::function<bool()>& done,
                  const char* what) {
    pump_until(reqs, done, [](double now) { return now + 0.05; }, now_s() + kDrainTimeoutS);
    if (!done()) throw std::runtime_error(std::string("no reply to ") + what + " in time");
  }

  /// The event loop.  `tick(now)` sends whatever is due and returns when the
  /// next send is due; the loop sleeps in ppoll until then or until a
  /// socket is ready, and stops when `done()` holds or at `deadline`.
  void pump_until(std::vector<Request>& reqs, const std::function<bool()>& done,
                  const std::function<double(double)>& tick, double deadline) {
    std::vector<pollfd> fds(conns_.size());
    char buf[65536];
    while (!done()) {
      const double now = now_s();
      if (now > deadline) return;
      const double wake = tick(now);
      for (std::size_t i = 0; i < conns_.size(); ++i) flush(conns_[i]);
      if (done()) return;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const double wait = std::max(0.0, std::min(wake, deadline) - now_s());
      timespec ts{static_cast<time_t>(wait), static_cast<long>((wait - std::floor(wait)) * 1e9)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t n = ::read(conns_[i].fd, buf, sizeof buf);
          if (n > 0) {
            conns_[i].decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            continue;
          }
          if (n == 0) throw std::runtime_error("daemon closed a connection");
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw std::runtime_error(std::string("read: ") + std::strerror(errno));
        }
        while (auto frame = conns_[i].decoder.next()) on_frame(conns_[i], *frame, reqs);
      }
    }
  }

  void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
  }

  void on_frame(Conn& c, const std::string& text, std::vector<Request>& reqs) {
    auto sp = Tracer::span_if(tracer_, "loadgen.recv", 0);
    const double now = now_s();
    const json::Value doc = json::parse(text);
    if (doc.get_string("op", "") == "result") {
      const auto it = by_ticket_.find(static_cast<std::uint64_t>(doc.get_int("ticket", 0)));
      // A result whose request already timed out in an earlier rung.
      if (it == by_ticket_.end()) return;
      Request& r = reqs[it->second];
      by_ticket_.erase(it);
      r.t.settled = now;
      r.settled = true;
      ++settled_;
      if (doc.get_string("status", "") != "DONE" || doc.find("counts") == nullptr)
        r.failure = "settled " + doc.get_string("status", "?") + " " + doc.get_string("error", "");
      else
        r.counts = core::Counts::from_json(doc.at("counts"));
      return;
    }
    if (c.fifo.empty()) throw std::runtime_error("unsolicited response: " + text);
    const auto [kind, index] = c.fifo.front();
    c.fifo.pop_front();
    if (kind == Kind::Hello) {
      if (!doc.get_bool("ok", false)) throw std::runtime_error("hello refused: " + text);
    } else if (kind == Kind::Stats) {
      backlog_ = doc.get_int("queued", 0) + doc.get_int("in_flight", 0);
    } else {
      Request& r = reqs[index];
      if (!doc.get_bool("ok", false)) {
        r.failure = doc.get_string("code", "ERROR");  // SHED, REJECTED, ...
        r.t.settled = now;
        r.settled = true;
        ++settled_;
        return;
      }
      r.ticket = static_cast<std::uint64_t>(doc.get_int("ticket", 0));
      r.ticketed = now;
      by_ticket_[r.ticket] = index;
      c.out += serve::encode_frame(
          "{\"op\":\"result\",\"ticket\":" + std::to_string(r.ticket) + ",\"wait\":true}",
          serve::Framing::Newline);
    }
  }

  Tracer* tracer_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, std::size_t> by_ticket_;
  std::size_t settled_ = 0;
  std::int64_t backlog_ = 0;
};

/// The seeded schedule of one rung: request k of the run gets job seed
/// derive_seed(seed, 10, k) and tenant/connection Generator::conn_for(k).
std::vector<Request> make_rung(const RunOptions& options, std::uint64_t rung_index, double rate,
                               double seconds, std::size_t& next_k) {
  const std::vector<double> due =
      poisson_schedule(rate, seconds, derive_seed(options.seed, 11, rung_index));
  std::vector<Request> reqs(due.size());
  const double epoch = now_s() + 0.01;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::size_t k = next_k++;
    reqs[i].conn = Generator::conn_for(k);
    reqs[i].seed = derive_seed(options.seed, 10, k);
    reqs[i].frame = submit_frame(wire_job(reqs[i].seed, k));
    reqs[i].t.due = epoch + due[i];
  }
  // Frame building took time; re-anchor the schedule so it starts now.
  const double shift = now_s() + 0.005 - epoch;
  if (shift > 0)
    for (Request& r : reqs) r.t.due += shift;
  return reqs;
}

/// Output checks on a settled rung: every DONE result passes the QFT
/// uniformity test and is bit-identical to an in-process core::submit of the
/// same seeded bundle (the determinism invariant, checked through the daemon).
void verify(std::vector<Request>& reqs) {
  for (Request& r : reqs) {
    if (!r.failure.empty()) continue;
    std::string bad = check_qft_uniform(r.counts, kWidth, kShots);
    if (bad.empty() && core::submit(wire_job(r.seed, 0)).counts.map() != r.counts.map())
      bad = "differs from an in-process core::submit of the same bundle";
    if (!bad.empty()) {
      r.failure = bad;
      r.wrong_output = true;
    }
    r.counts = core::Counts{};
  }
}

struct RungData {
  RungResult result;  // its tail counts failed requests as missing the limit
  Tail settled_tail;  // tail over the settled requests' latencies alone
  std::vector<double> latency_ms, lag_ms, rtt_us, settle_ms;
  double cpu_ms = 0.0;  // process CPU (every thread) while the generator ran
  std::size_t settled = 0;
  std::vector<std::string> failures;      // a sample of why requests failed
  std::vector<std::string> wrong_outputs;  // every failed output check
};

RungData summarize(std::vector<Request>& reqs, double rate, std::int64_t backlog_start,
                   std::int64_t backlog_end) {
  RungData d;
  d.result.offered_rate = rate;
  d.result.attempted = reqs.size();
  d.result.backlog_start = backlog_start;
  d.result.backlog_end = backlog_end;
  double first_due = 0.0, last_settled = 0.0;
  std::size_t done = 0;
  for (const Request& r : reqs) {
    if (!r.failure.empty()) {
      ++d.result.failed;
      if (d.failures.size() < 8) d.failures.push_back(r.failure);
      if (r.wrong_output)
        d.wrong_outputs.push_back("job seed " + std::to_string(r.seed) + ": " + r.failure);
      continue;
    }
    ++done;
    if (done == 1) first_due = r.t.due;
    last_settled = std::max(last_settled, r.t.settled);
    d.latency_ms.push_back(due_latency(r.t) * 1e3);
    d.lag_ms.push_back(send_lag(r.t) * 1e3);
    d.rtt_us.push_back((r.ticketed - r.t.sent) * 1e6);
    d.settle_ms.push_back((r.t.settled - r.ticketed) * 1e3);
  }
  // A failed request misses the latency limit: it enters the tail as +inf.
  std::vector<double> tail_input = d.latency_ms;
  tail_input.resize(tail_input.size() + d.result.failed, std::numeric_limits<double>::infinity());
  d.result.tail = tail_percentile(tail_input);
  d.settled_tail = tail_percentile(d.latency_ms);
  d.result.completed_rate =
      done > 1 ? static_cast<double>(done) / (last_settled - first_due) : 0.0;
  return d;
}

struct Setup {
  std::unique_ptr<WireStack> stack;
  std::unique_ptr<Generator> generator;
  std::size_t next_k = 0;
};

RungData run_rung(Setup& s, const RunOptions& options, std::uint64_t rung_index, double rate,
                  double seconds) {
  std::vector<Request> reqs = make_rung(options, rung_index, rate, seconds, s.next_k);
  std::int64_t backlog_start = 0, backlog_end = 0;
  const double cpu0 = process_cpu_ms();
  if (!s.generator->run(reqs, backlog_start, backlog_end))  // reconnect: drop late replies
    s.generator = std::make_unique<Generator>(s.stack->socket_path(), nullptr);
  const double cpu_ms = process_cpu_ms() - cpu0;
  verify(reqs);
  RungData d = summarize(reqs, rate, backlog_start, backlog_end);
  d.cpu_ms = cpu_ms;
  d.settled = d.result.attempted - d.result.failed;
  return d;
}

Setup set_up(const RunOptions& options, Report& report) {
  Setup s;
  s.stack = std::make_unique<WireStack>(options.out_dir, "wire");
  s.generator = std::make_unique<Generator>(s.stack->socket_path(), nullptr);
  // Warm-up: the executor and service pools spawn and the journal file
  // grows past its first compactions before anything is measured.
  const RungData warm = run_rung(s, options, 1000, kReferenceRate, kWarmupSeconds);
  for (const std::string& why : warm.wrong_outputs) report.check_failed("warm-up: " + why);
  return s;
}

/// Counts a rung's requests toward fail_ratio; wrong outputs also make the
/// run incorrect.
void account(Report& report, const RungData& rung, const std::string& label) {
  report.attempted += rung.result.attempted;
  for (const std::string& why : rung.wrong_outputs) report.check_failed(label + ": " + why);
  const std::size_t other = rung.result.failed - rung.wrong_outputs.size();
  if (other != 0) report.attempts_failed(other, label + ", e.g. " + rung.failures.front());
}

std::string describe(const RungData& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rung %.0f/s: %zu jobs, %zu failed, p50 %.3f ms, p%.2f %.3f ms (%zu beyond), "
                "backlog %lld -> %lld, completed %.1f/s",
                d.result.offered_rate, d.result.attempted, d.result.failed, median(d.latency_ms),
                d.settled_tail.percentile, d.settled_tail.value, d.settled_tail.beyond,
                static_cast<long long>(d.result.backlog_start),
                static_cast<long long>(d.result.backlog_end), d.result.completed_rate);
  return buf;
}

}  // namespace

Report run_wire_small(const RunOptions& options) {
  Report report;
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};
    const Clock::time_point t0 = rep == 0 ? process_start() : Clock::now();
    s = set_up(options, report);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.note("open loop, 4 connections, tenants 2:1, QFT-3 x 128 shots; reference rung " +
              std::to_string(kReferenceRate) + " jobs/s; tail limit " +
              std::to_string(kTailLimitMs) + " ms");
  const LadderRules rules{kTailLimitMs, 8};

  const double window_s = options.seconds * kReferenceShare / kWindows;
  if (!options.trace) {
    // Reference windows interleave with the ladder, so a noisy phase of the
    // host lands in a few windows instead of the whole reference rung.
    std::vector<RungData> windows;
    std::vector<RungResult> ladder;
    std::vector<RungData> data;
    const double rung_s = options.seconds * (1.0 - kReferenceShare) / kLadderRungs;
    bool climbing = true;
    int next_rung = 0;
    // A failing rung runs once more before the climb stops: a single host
    // stall of ~20 ms fills a tenant's 64-job lane at these rates, and the
    // knee is where a repeat fails too.  The first attempt's SHEDs are part
    // of the search, like the final failing rung's.
    const auto climb = [&](int count) {
      for (int c = 0; c < count && climbing && next_rung < kLadderRungs; ++c, ++next_rung) {
        RungData d;
        for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
          d = run_rung(s, options, 1 + static_cast<std::uint64_t>(next_rung) + 1000 * attempt,
                       ladder_rate(next_rung), rung_s);
          climbing = judge_rung(d.result, rules).pass();
          report.note(describe(d) + (climbing ? " PASS" : " FAIL"));
          if (climbing) break;
          for (const std::string& why : d.wrong_outputs) report.check_failed("rung: " + why);
        }
        ladder.push_back(d.result);
        data.push_back(std::move(d));
      }
    };
    std::vector<double> window_rss;
    for (std::size_t w = 0; w < kWindows; ++w) {
      reset_peak_rss();
      windows.push_back(run_rung(s, options, 100 + w, kReferenceRate, window_s));
      window_rss.push_back(peak_rss_mb());
      account(report, windows.back(), "reference window");
      climb(kLadderRungs / static_cast<int>(kWindows) + 1);
    }
    climb(kLadderRungs);
    const int best = highest_passing_rung(ladder, rules);
    // Jobs of passing rungs count toward fail_ratio; failing attempts are the
    // overload the ladder looks for (SHED there is the verdict), but a wrong
    // output anywhere is a failure (checked as each attempt ran).
    for (int i = 0; i <= best; ++i) account(report, data[static_cast<std::size_t>(i)], "ladder rung");
    std::vector<double> p50s, tails, rates, cpu_per_job;
    double cpu_ms = 0.0;
    std::size_t settled = 0;
    for (const RungData& w : windows) {
      cpu_ms += w.cpu_ms;
      settled += w.settled;
      cpu_per_job.push_back(w.cpu_ms / static_cast<double>(std::max<std::size_t>(w.settled, 1)));
      p50s.push_back(median(w.latency_ms));
      tails.push_back(w.settled_tail.value);
      rates.push_back(w.result.completed_rate);
    }
    std::string per_window = "window p50 / tail (ms):";
    for (std::size_t w = 0; w < windows.size(); ++w)
      per_window.append(" ").append(std::to_string(p50s[w])).append("/").append(
          std::to_string(tails[w]));
    report.note("reference: medians over " + std::to_string(kWindows) + " windows of ~" +
                std::to_string(windows[0].result.attempted) + " jobs; tail is each window's p" +
                std::to_string(windows[0].settled_tail.percentile) + " (10 beyond)");
    report.note(per_window);
    report.set("setup_s", median(setup_s), "s");
    // Per-job CPU is not separable in an open loop (the server, daemon and
    // generator threads serve many jobs at once): process CPU per settled
    // job stands in, over all windows for the mean, per window for the
    // median and the tail (the second highest of the windows).
    report.set("cpu_mean_ms", cpu_ms / static_cast<double>(std::max<std::size_t>(settled, 1)),
               "ms");
    report.set("cpu_p50_ms", median(cpu_per_job), "ms");
    report.set("cpu_tail_ms", tail_percentile(cpu_per_job, 1).value, "ms");
    report.set("latency_p50_ms", median(p50s), "ms");
    report.set("latency_tail_ms", median(tails), "ms");
    report.set("throughput_jobs_s", median(rates), "jobs/s");
    report.set("max_rate_jobs_s",
               best >= 0 ? ladder[static_cast<std::size_t>(best)].completed_rate : 0.0, "jobs/s");
    // At the reference rate: how far the ladder climbed moves the process
    // peak (each rung's frames are built up front), not the daemon's needs.
    report.set("peak_rss_mb", median(window_rss), "MiB");
    return report;
  }

  // Traced: reference windows alternate between untraced and traced
  // generator calls; trace.overhead compares their median latencies.
  std::vector<double> plain_p50s, traced_p50s, rtt_us, settle_ms, lag_ms;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const bool traced = w % 2 == 1;
    s.generator->set_tracer(traced ? tracer.get() : nullptr);
    const RungData d = run_rung(s, options, 100 + w, kReferenceRate, window_s);
    account(report, d, traced ? "traced reference window" : "reference window");
    (traced ? traced_p50s : plain_p50s).push_back(median(d.latency_ms));
    if (traced) continue;
    rtt_us.insert(rtt_us.end(), d.rtt_us.begin(), d.rtt_us.end());
    settle_ms.insert(settle_ms.end(), d.settle_ms.begin(), d.settle_ms.end());
    lag_ms.insert(lag_ms.end(), d.lag_ms.begin(), d.lag_ms.end());
  }
  s = Setup{};
  const double plain_p50 = median(plain_p50s);
  report.set("trace.overhead", median(traced_p50s) / plain_p50, "ratio");
  report.set("serve.submit_rtt_us", median(rtt_us), "us");
  report.set("serve.settle_wait_ms", median(settle_ms), "ms");
  report.set("loadgen.lag_p99_ms", tail_percentile(lag_ms, lag_ms.size() / 100).value, "ms");

  ProbeInputs inputs;
  for (std::size_t k = 0; k < 100; ++k)
    inputs.jobs.push_back(wire_job(derive_seed(options.seed, 10, k), k));
  inputs.dense_jobs.assign(inputs.jobs.begin(), inputs.jobs.begin() + 20);
  inputs.mps_job = inputs.jobs[0];
  inputs.sweep_bundle = inputs.jobs[0];
  inputs.sweep_bindings.assign(16, {});
  inputs.sweep_repeats = 5;
  inputs.anneal_instance = make_maxcut_instance(options.seed, 0);
  inputs.anneal_params = maxcut_anneal_params();
  inputs.wire_probe = false;
  run_layer_probes(options, inputs, *tracer, report);

  // The serve-side stages replayed in process, against the wire's due-time
  // latency at the same rate: the rest is sockets, polling and queue handoffs.
  const double covered = median(covered_ms(tracer->spans(), "ingress"));
  report.set("trace.coverage", covered / plain_p50, "ratio");
  report.note("trace.coverage: ingress stages " + std::to_string(covered) +
              " ms of wire latency " + std::to_string(plain_p50) + " ms");
  tracer->write_ndjson(options.out_dir + "/spans-wire_small.ndjson");
  return report;
}

}  // namespace perfbench
