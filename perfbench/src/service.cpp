// service-peak and service-lan: a 7-replica MinBFT cluster (f = 3) on
// net::AsyncRuntime, built here from the public replica, client, runtime and
// key-registry classes and configured the way MinBftRuntimeCluster
// configures the wall-clock lane (bench_fig10's runtime_config, passive
// recovery forced on, a 1 s commit-repair timeout).  Building the cluster in
// the benchmark lets the traced run hand replicas and clients a recording
// Transport and wrap their handlers, while the untraced run hands them the
// runtime itself.
//
// Neither workload injects loss, speculation or a MAC flush window: each of
// them makes wall-clock timings bimodal (a lost frame waits out the 1 s
// retry timer; a spoiled all-n speculative quorum waits out its 100 ms
// fallback), and the spread swamps any change a later PR could make.
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tolerance/consensus/minbft_client.hpp"
#include "tolerance/consensus/minbft_replica.hpp"
#include "tolerance/consensus/minbft_runtime.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/net/wire.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tolerance::consensus::MinBftClient;
using tolerance::consensus::MinBftConfig;
using tolerance::consensus::MinBftMsg;
using tolerance::consensus::MinBftReplica;
using tolerance::consensus::MinBftRuntime;
using tolerance::consensus::MinBftTransport;
using tolerance::net::NodeId;

constexpr int kReplicas = 7;
constexpr int kSessions = 4;
constexpr int kPoolWorkers = 3;
constexpr int kInFlight = 16;  ///< per session: 4 x 16 fills the 4 x 16 pipeline
constexpr NodeId kClientBase = 10000;
constexpr double kLatencyLimit = 0.050;
constexpr std::size_t kWarmupRequests = 2048;
constexpr int kSetups = 5;
constexpr double kAvailabilityWindow = 0.1;
/// One sampled HMAC per this many messages sent (crypto.hmac_us_per_kib).
constexpr std::uint64_t kHmacSampleEvery = 16;

struct ServiceShape {
  bool lan_delays = false;
  std::size_t op_bytes = 16;
  double paced_rate = 0.0;  ///< 0: closed loop
  /// Requests per second of --seconds: sizes the fixed work.  The closed
  /// loop's is its throughput on a 4-vCPU x86 VM, so a run lasts about
  /// --seconds there.
  double work_rate = 0.0;
};

MinBftConfig cluster_config() {
  MinBftConfig cfg;  // batch 16, pipeline 4, no speculation, no flush window
  cfg.f = (kReplicas - 1) / 2;
  cfg.checkpoint_period = 100;
  cfg.log_watermark = 1000;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  cfg.batch_timeout = 0.005;
  cfg.passive_recovery = true;
  cfg.commit_repair_timeout = 1.0;
  return cfg;
}

MinBftRuntime::Options runtime_options(bool lan_delays, std::uint64_t seed) {
  MinBftRuntime::Options o;
  tolerance::net::LinkConfig instant;
  instant.base_delay = 0.0;
  instant.jitter = 0.0;
  instant.loss = 0.0;
  o.replica_link = instant;
  o.client_link = instant;
  if (lan_delays) {
    // Replica hops 1 ms + up to 0.2 ms, client hops 2 ms + up to 0.5 ms.
    const auto lan = tolerance::net::NetworkProfile::lan();
    o.replica_link = lan.replica_link;
    o.client_link = lan.client_link;
    o.replica_link.loss = 0.0;
    o.client_link.loss = 0.0;
  }
  o.client_floor = kClientBase;
  o.flush_window = 0.0;
  o.seed = seed;
  return o;
}

int message_kind(const MinBftMsg& m) {
  const auto i = static_cast<int>(m.index());
  return i <= 4 ? i : kMsgKinds - 1;  // request, prepare, commit, reply, checkpoint
}

SpanKey key_of(const MinBftMsg& m) {
  using namespace tolerance::consensus;
  if (const auto* r = std::get_if<Request>(&m)) return {r->client, r->request_id};
  if (const auto* p = std::get_if<Prepare>(&m)) return {p->view, p->seq};
  if (const auto* c = std::get_if<Commit>(&m)) return {c->view, c->seq};
  if (const auto* r = std::get_if<Reply>(&m)) return {r->client, r->request_id};
  if (const auto* c = std::get_if<Checkpoint>(&m)) return {0, c->last_executed};
  return {};
}

Layer replica_layer(const MinBftMsg& m) {
  switch (m.index()) {
    case 0:
      return Layer::kReplicaRequest;
    case 1:
      return Layer::kReplicaPrepare;
    case 2:
      return Layer::kReplicaCommit;
    case 4:
      return Layer::kReplicaCheckpoint;
    default:
      return Layer::kReplicaOther;
  }
}

/// Forwards every call to the runtime, timing send and broadcast and
/// sizing each message with the wire codec (the sizing and a sampled HMAC
/// run in a kTraceCost span, so they count as tracing overhead, not as the
/// layer's cost).
class RecordingTransport final : public MinBftTransport {
 public:
  RecordingTransport(MinBftRuntime& runtime, Tracer& tracer)
      : rt_(runtime), tracer_(tracer) {}

  double now() const override { return rt_.now(); }
  void register_host(NodeId id, Handler handler) override {
    rt_.register_host(id, std::move(handler));
  }
  void unregister_host(NodeId id) override { rt_.unregister_host(id); }
  bool is_registered(NodeId id) const override { return rt_.is_registered(id); }

  void send(NodeId from, NodeId to, MinBftMsg msg) override {
    const SpanKey key = key_of(msg);
    record(msg, 1, key);
    Tracer::Span span(tracer_, Layer::kNetSend, key);
    rt_.send(from, to, std::move(msg));
  }

  void broadcast(NodeId from, const std::vector<NodeId>& recipients,
                 const MinBftMsg& msg) override {
    std::size_t copies = 0;
    for (NodeId to : recipients) copies += to != from ? 1 : 0;
    const SpanKey key = key_of(msg);
    record(msg, copies, key);
    Tracer::Span span(tracer_, Layer::kNetSend, key);
    rt_.broadcast(from, recipients, msg);
  }

  std::uint64_t schedule(NodeId owner, double delay,
                         std::function<void()> fn) override {
    return rt_.schedule(owner, delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override { rt_.cancel(timer_id); }
  void consume_cpu(NodeId node, double seconds) override {
    rt_.consume_cpu(node, seconds);
  }
  std::size_t queue_depth(NodeId node) const override {
    return rt_.queue_depth(node);
  }

 private:
  void record(const MinBftMsg& msg, std::size_t copies, SpanKey key) {
    Tracer::Span cost(tracer_, Layer::kTraceCost, key);
    const auto bytes = tolerance::net::MinBftCodec::encode(msg);
    tracer_.count_message(message_kind(msg), bytes.size(), copies);
    thread_local std::uint64_t sent = 0;
    if (++sent % kHmacSampleEvery == 0) {
      const auto t0 = Clock::now();
      const auto tag = tolerance::crypto::hmac_sha256(
          "perfbench:link-key",
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()));
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
      hmac_sink_.store(tag[0], std::memory_order_relaxed);
      tracer_.add_hmac_sample(ns, bytes.size());
    }
  }

  MinBftRuntime& rt_;
  Tracer& tracer_;
  std::atomic<unsigned> hmac_sink_{0};
};

std::string make_op(NodeId client, std::uint64_t serial, std::size_t bytes) {
  std::string op = "c" + std::to_string(client) + "." + std::to_string(serial) +
                   ".";
  if (op.size() < bytes) op.append(bytes - op.size(), 'x');
  return op;
}

/// One cluster: pool, runtime, key registry, 7 replicas and 4 client
/// sessions.  The destructor quiesces the runtime before any replica or
/// client is destroyed.
class Cluster {
 public:
  Cluster(const ServiceShape& shape, std::uint64_t seed, Tracer* tracer)
      : shape_(shape),
        runtime_(pool_, runtime_options(shape.lan_delays, seed)),
        tracer_(tracer) {
    if (tracer_ != nullptr) {
      recording_ = std::make_unique<RecordingTransport>(runtime_, *tracer_);
    }
    MinBftTransport& net = recording_
                               ? static_cast<MinBftTransport&>(*recording_)
                               : static_cast<MinBftTransport&>(runtime_);
    const MinBftConfig cfg = cluster_config();
    std::vector<NodeId> members;
    for (int i = 0; i < kReplicas; ++i) members.push_back(static_cast<NodeId>(i));
    for (NodeId id : members) {
      replicas_.push_back(std::make_unique<MinBftReplica>(
          id, members, cfg, net, registry_, seed ^ id));
      MinBftReplica* raw = replicas_.back().get();
      if (tracer_ != nullptr) {
        Tracer* t = tracer_;
        runtime_.register_host(id, [raw, t](NodeId from, const MinBftMsg& m) {
          Tracer::Span span(*t, replica_layer(m), key_of(m));
          raw->on_message(from, m);
        });
      } else {
        runtime_.register_host(id, [raw](NodeId from, const MinBftMsg& m) {
          raw->on_message(from, m);
        });
      }
    }
    for (int s = 0; s < kSessions; ++s) {
      const NodeId id = kClientBase + static_cast<NodeId>(s);
      clients_.push_back(std::make_unique<MinBftClient>(
          id, cfg.f, members, net, registry_, seed ^ id,
          cfg.request_retry_timeout, 0.0));
      MinBftClient* raw = clients_.back().get();
      if (tracer_ != nullptr) {
        Tracer* t = tracer_;
        runtime_.register_host(id, [raw, t](NodeId from, const MinBftMsg& m) {
          Tracer::Span span(*t, Layer::kClientReply, key_of(m));
          raw->on_message(from, m);
        });
      } else {
        runtime_.register_host(id, [raw](NodeId from, const MinBftMsg& m) {
          raw->on_message(from, m);
        });
      }
    }
  }

  ~Cluster() { runtime_.stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  MinBftRuntime& runtime() { return runtime_; }
  const ServiceShape& shape() const { return shape_; }
  static NodeId session_id(int s) { return kClientBase + static_cast<NodeId>(s); }

  /// Submit one operation from session `s`.  Must run on the session's
  /// event loop.
  void submit(int s, std::uint64_t serial,
              MinBftClient::CompletionHandler done) {
    MinBftClient& c = *clients_[static_cast<std::size_t>(s)];
    const std::string op = make_op(session_id(s), serial, shape_.op_bytes);
    if (tracer_ != nullptr) {
      Tracer::Span span(*tracer_, Layer::kClientSubmit,
                        {session_id(s), serial});
      c.submit(op, std::move(done));
    } else {
      c.submit(op, std::move(done));
    }
  }

  /// Serials [base, base + n) are reserved for the next pass of session s.
  std::uint64_t reserve_serials(int s, std::uint64_t n) {
    const std::uint64_t base = next_serial_[static_cast<std::size_t>(s)];
    next_serial_[static_cast<std::size_t>(s)] += n;
    return base;
  }
  void note_acked(int s, std::uint64_t serial) {
    acked_.push_back({s, serial});
  }

  /// Wait until every replica has committed the same number of operations
  /// and stays there for a few polls; false on timeout.
  bool wait_converged(double timeout_s) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    std::uint64_t last = ~0ull;
    int stable = 0;
    while (Clock::now() < deadline) {
      std::uint64_t lo = ~0ull;
      std::uint64_t hi = 0;
      for (const auto& r : replicas_) {
        const auto c = r->progress().committed_ops.load(std::memory_order_relaxed);
        lo = std::min(lo, c);
        hi = std::max(hi, c);
      }
      if (lo == hi && lo == last) {
        if (++stable >= 3) return true;
      } else {
        stable = 0;
      }
      last = lo == hi ? lo : ~0ull;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// Quiesce the runtime; replica and client state may be read afterwards.
  void stop() { runtime_.stop(); }

  /// The output checks on a stopped cluster (see check_outputs).
  void check_outputs(Report& report) const;

  /// Cumulative protocol counters, readable only once stopped.
  double batch_fill() const {
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    for (const auto& r : replicas_) {
      batches += r->batches_proposed();
      requests += r->requests_proposed();
    }
    const MinBftConfig cfg = cluster_config();
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches) / cfg.batch_size;
  }
  std::uint64_t usig_verifies() const {
    std::uint64_t n = 0;
    for (const auto& r : replicas_) n += r->usig_cache_misses();
    return n;
  }
  std::size_t acked_count() const { return acked_.size(); }
  std::uint64_t failed_frames() const {
    return runtime_.decode_errors() + runtime_.handler_errors() +
           runtime_.auth_failures() + runtime_.overflow_dropped();
  }

 private:
  ServiceShape shape_;
  tolerance::util::ThreadPool pool_{kPoolWorkers};
  MinBftRuntime runtime_;
  Tracer* tracer_;
  std::unique_ptr<RecordingTransport> recording_;
  std::shared_ptr<tolerance::crypto::KeyRegistry> registry_ =
      std::make_shared<tolerance::crypto::KeyRegistry>();
  std::vector<std::unique_ptr<MinBftReplica>> replicas_;
  std::vector<std::unique_ptr<MinBftClient>> clients_;
  std::array<std::uint64_t, kSessions> next_serial_{};
  /// (session, serial) of every acknowledged request, all passes.
  std::vector<std::pair<int, std::uint64_t>> acked_;
};

void Cluster::check_outputs(Report& report) const {
  report.check(runtime_.decode_errors() == 0, "decode_errors != 0");
  report.check(runtime_.handler_errors() == 0, "handler_errors != 0");
  report.check(runtime_.auth_failures() == 0, "auth_failures != 0");
  report.check(runtime_.overflow_dropped() == 0, "overflow_dropped != 0");
  report.check(runtime_.dropped_messages() == 0, "link drops on a lossless run");
  // Committed logs are prefixes of one another ...
  const MinBftReplica* longest = replicas_.front().get();
  for (const auto& r : replicas_) {
    if (r->committed_log_size() > longest->committed_log_size()) longest = r.get();
  }
  const auto& ref = longest->service().log();
  for (const auto& r : replicas_) {
    const auto& log = r->service().log();
    bool prefix = r->committed_log_size() <= log.size();
    for (std::size_t i = 0; prefix && i < r->committed_log_size(); ++i) {
      prefix = log[i] == ref[i];
    }
    report.check(prefix, "replica " + std::to_string(r->id()) +
                             "'s committed log is not a prefix of replica " +
                             std::to_string(longest->id()) + "'s");
  }
  // ... and hold every acknowledged request exactly once.
  std::unordered_map<std::string, int> seen;
  seen.reserve(longest->committed_log_size());
  bool duplicates = false;
  for (std::size_t i = 0; i < longest->committed_log_size(); ++i) {
    duplicates |= ++seen[ref[i]] > 1;
  }
  report.check(!duplicates, "an operation committed twice");
  std::size_t missing = 0;
  for (const auto& [s, serial] : acked_) {
    const auto it = seen.find(make_op(session_id(s), serial, shape_.op_bytes));
    if (it == seen.end() || it->second != 1) ++missing;
  }
  report.check(missing == 0, std::to_string(missing) +
                                 " acknowledged requests missing from the "
                                 "committed log");
}

/// One measured pass.  Times are seconds from the pass start.
struct Pass {
  std::size_t quota = 0;
  std::vector<double> latency_s;  ///< completed requests only
  std::vector<double> key_s;      ///< window key: completion (closed), due (paced)
  std::vector<double> done_s;     ///< completion times
  std::vector<PacedRequest> paced;  ///< open loop only
  std::vector<double> cpu_marks;  ///< process CPU at each whole second
  double elapsed_s = 0.0;         ///< pass start to last completion
  double cpu_s = 0.0;             ///< process CPU over the pass
  std::uint64_t bundles = 0;      ///< authenticated bundles shipped
};

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Shared with the completion callbacks, which may outlive a timed-out pass.
struct PassState {
  explicit PassState(std::size_t n) : latency_ns(n), done_ns(n) {
    for (std::size_t i = 0; i < n; ++i) {
      latency_ns[i].store(-1, std::memory_order_relaxed);
      done_ns[i].store(-1, std::memory_order_relaxed);
    }
  }
  Clock::time_point start;
  std::vector<std::atomic<std::int64_t>> latency_ns;
  std::vector<std::atomic<std::int64_t>> done_ns;
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stopped{false};
};

/// Block until `state.completed` reaches `n` or the deadline passes,
/// marking the process CPU at every whole second of the pass.
void await(const PassState& state, std::size_t n, double deadline_s,
           std::vector<double>& cpu_marks) {
  for (;;) {
    const double t = seconds_between(state.start, Clock::now());
    while (static_cast<double>(cpu_marks.size()) <= t) {
      cpu_marks.push_back(process_cpu_seconds());
    }
    if (state.completed.load(std::memory_order_acquire) >= n || t >= deadline_s) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Pass collect(Cluster& c, const std::shared_ptr<PassState>& state,
             std::size_t quota, double cpu0, std::uint64_t bundles0,
             const std::vector<std::pair<int, std::uint64_t>>& slot_owner,
             std::vector<double> cpu_marks) {
  state->stopped.store(true, std::memory_order_release);
  Pass p;
  p.quota = quota;
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.cpu_marks = std::move(cpu_marks);
  p.bundles = c.runtime().macs_computed() - bundles0;
  for (std::size_t i = 0; i < quota; ++i) {
    const std::int64_t done = state->done_ns[i].load(std::memory_order_acquire);
    if (done < 0) continue;
    const std::int64_t lat = state->latency_ns[i].load(std::memory_order_relaxed);
    p.latency_s.push_back(static_cast<double>(lat) * 1e-9);
    p.done_s.push_back(static_cast<double>(done) * 1e-9);
    p.key_s.push_back(p.done_s.back());
    p.elapsed_s = std::max(p.elapsed_s, p.done_s.back());
    c.note_acked(slot_owner[i].first, slot_owner[i].second);
  }
  return p;
}

/// Closed loop: 4 sessions, each keeping 16 requests in flight, until each
/// has submitted quota/4 requests.
Pass run_closed_loop(Cluster& c, std::size_t quota, double deadline_s) {
  const std::size_t per_session = quota / kSessions;
  quota = per_session * kSessions;
  auto state = std::make_shared<PassState>(quota);
  std::vector<std::pair<int, std::uint64_t>> slot_owner(quota);
  std::array<std::uint64_t, kSessions> base{};
  for (int s = 0; s < kSessions; ++s) {
    base[static_cast<std::size_t>(s)] = c.reserve_serials(s, per_session);
    for (std::size_t k = 0; k < per_session; ++k) {
      slot_owner[static_cast<std::size_t>(s) * per_session + k] = {
          s, base[static_cast<std::size_t>(s)] + k};
    }
  }
  // Loop-confined submission cursors, one per session.
  auto cursors = std::make_shared<std::array<std::size_t, kSessions>>();
  Cluster* cluster = &c;
  std::shared_ptr<std::function<void(int)>> submit_next =
      std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak_next = submit_next;
  *submit_next = [cluster, state, cursors, base, per_session,
                  weak_next](int s) {
    if (state->stopped.load(std::memory_order_relaxed)) return;
    std::size_t& k = (*cursors)[static_cast<std::size_t>(s)];
    if (k >= per_session) return;
    const std::size_t slot = static_cast<std::size_t>(s) * per_session + k;
    const std::uint64_t serial = base[static_cast<std::size_t>(s)] + k;
    ++k;
    cluster->submit(s, serial, [state, slot, s, weak_next](
                                   std::uint64_t, const std::string&,
                                   double latency) {
      state->latency_ns[slot].store(static_cast<std::int64_t>(latency * 1e9),
                                    std::memory_order_relaxed);
      state->done_ns[slot].store(ns_since(state->start),
                                 std::memory_order_release);
      state->completed.fetch_add(1, std::memory_order_acq_rel);
      if (auto next = weak_next.lock()) (*next)(s);
    });
  };
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t bundles0 = c.runtime().macs_computed();
  state->start = Clock::now();
  for (int s = 0; s < kSessions; ++s) {
    c.runtime().post(Cluster::session_id(s), [submit_next, s]() {
      for (int i = 0; i < kInFlight; ++i) (*submit_next)(s);
    });
  }
  std::vector<double> marks;
  await(*state, quota, deadline_s, marks);
  Pass p = collect(c, state, quota, cpu0, bundles0, slot_owner, std::move(marks));
  // Callbacks still in flight hold only a weak reference: once this
  // strong one goes, a late completion submits nothing.
  submit_next.reset();
  return p;
}

/// Open loop: one generator thread hands request i to session i % 4 at its
/// due time start + i / rate; each request is timed from that due time.
Pass run_paced_loop(Cluster& c, std::size_t quota, double rate,
                    double grace_s) {
  auto state = std::make_shared<PassState>(quota);
  std::vector<std::pair<int, std::uint64_t>> slot_owner(quota);
  std::array<std::uint64_t, kSessions> base{};
  for (int s = 0; s < kSessions; ++s) {
    const std::uint64_t n = (quota + kSessions - 1 - static_cast<std::size_t>(s)) /
                            kSessions;
    base[static_cast<std::size_t>(s)] = c.reserve_serials(s, n);
  }
  std::vector<PacedRequest> paced(quota);
  for (std::size_t i = 0; i < quota; ++i) {
    const int s = static_cast<int>(i % kSessions);
    slot_owner[i] = {s, base[static_cast<std::size_t>(s)] + i / kSessions};
    paced[i].due = static_cast<double>(i) / rate;
  }
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t bundles0 = c.runtime().macs_computed();
  state->start = Clock::now();
  std::vector<double> marks;
  {
    std::jthread generator([&]() {
      tighten_timer_slack();
      for (std::size_t i = 0; i < quota; ++i) {
        const auto due = state->start +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(paced[i].due));
        std::this_thread::sleep_until(due);
        paced[i].posted = seconds_between(state->start, Clock::now());
        const int s = slot_owner[i].first;
        const std::uint64_t serial = slot_owner[i].second;
        Cluster* cluster = &c;
        const auto due_ns = static_cast<std::int64_t>(paced[i].due * 1e9);
        c.runtime().post(Cluster::session_id(s), [cluster, state, s, serial, i,
                                                  due_ns]() {
          if (state->stopped.load(std::memory_order_relaxed)) return;
          cluster->submit(s, serial, [state, i, due_ns](std::uint64_t,
                                                        const std::string&,
                                                        double) {
            const std::int64_t done = ns_since(state->start);
            state->latency_ns[i].store(done - due_ns, std::memory_order_relaxed);
            state->done_ns[i].store(done, std::memory_order_release);
            state->completed.fetch_add(1, std::memory_order_acq_rel);
          });
        });
      }
    });
    const double last_due = quota == 0 ? 0.0 : static_cast<double>(quota - 1) / rate;
    await(*state, quota, last_due + grace_s, marks);
  }  // joins the generator
  Pass p = collect(c, state, quota, cpu0, bundles0, slot_owner, std::move(marks));
  p.key_s.clear();
  for (std::size_t i = 0; i < quota; ++i) {
    const std::int64_t done = state->done_ns[i].load(std::memory_order_acquire);
    paced[i].done = done < 0 ? -1.0 : static_cast<double>(done) * 1e-9;
    if (done >= 0) p.key_s.push_back(paced[i].due);
  }
  p.paced = std::move(paced);
  return p;
}

std::size_t fixed_quota(const ServiceShape& shape, double seconds) {
  const auto n = static_cast<std::size_t>(shape.work_rate * seconds);
  return std::max<std::size_t>(n / kSessions * kSessions, 1000);
}

/// Deadline for a pass of fixed work: generous, but inside the 180 s a run
/// may take.
double pass_deadline(double seconds) { return std::min(3.0 * seconds + 5.0, 100.0); }

Pass measure(Cluster& c, double seconds) {
  const ServiceShape& shape = c.shape();
  const std::size_t quota = fixed_quota(shape, seconds);
  if (shape.paced_rate > 0.0) return run_paced_loop(c, quota, shape.paced_rate, 2.0);
  return run_closed_loop(c, quota, pass_deadline(seconds));
}

/// Bring-up plus the fixed warm-up batch; the setup_s sample.
std::unique_ptr<Cluster> set_up(const ServiceShape& shape, std::uint64_t seed,
                                Tracer* tracer, double* seconds_taken,
                                Report& report) {
  const auto t0 = Clock::now();
  auto c = std::make_unique<Cluster>(shape, seed, tracer);
  const Pass warm = run_closed_loop(*c, kWarmupRequests, 60.0);
  *seconds_taken = seconds_between(t0, Clock::now());
  report.check(warm.latency_s.size() == warm.quota, "warm-up batch did not finish");
  report.check(c->wait_converged(10.0), "replicas did not converge after warm-up");
  return c;
}

/// Finish a pass: let followers catch up, stop, and check the outputs.
void finish(Cluster& c, Report& report) {
  report.check(c.wait_converged(10.0), "replicas did not converge after the run");
  c.stop();
  c.check_outputs(report);
}

ServiceTally tally(const ServiceShape& shape, const Pass& p) {
  return shape.paced_rate > 0.0 ? tally_paced(p.paced, kLatencyLimit)
                                : tally_fixed_work(p.quota, p.latency_s, kLatencyLimit);
}

Report run_service(const ServiceShape& shape, const RunOptions& o) {
  Report report;
  SeededRng rng(o.seed);
  const std::uint64_t cluster_seed = rng.next();
  if (!o.trace) {
    std::vector<double> setups;
    std::unique_ptr<Cluster> c;
    for (int i = 0; i < kSetups; ++i) {
      c.reset();
      double s = 0.0;
      c = set_up(shape, cluster_seed + static_cast<std::uint64_t>(i), nullptr, &s,
                 report);
      setups.push_back(s);
    }
    const Pass p = measure(*c, o.seconds);
    finish(*c, report);
    const ServiceTally t = tally(shape, p);
    std::vector<double> latency_ms;
    for (double l : p.latency_s) latency_ms.push_back(l * 1e3);
    WindowMedians m = window_medians(p.key_s, latency_ms, p.done_s, p.cpu_marks);
    if (m.windows == 0) {
      // A pass shorter than one whole window: the pass is the window.
      m.throughput = static_cast<double>(t.completed) / p.elapsed_s;
      m.p50_ms = percentile(t.latency_ms, 50.0).value_or(0.0);
      m.p99_ms = percentile(t.latency_ms, 99.0).value_or(0.0);
      m.cpu_us_per_op = p.cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(t.completed, 1));
      report.check(m.p99_ms > 0.0, "too few completed requests for a p99");
    }
    // A request fails when it is never acknowledged.  One acknowledged past
    // the 50 ms limit succeeded late: a stall of the shared host can do that
    // to any request, so it lowers served_share and counts as
    // late_requests, not as a failed operation.
    report.attempted = t.attempted;
    report.failed = t.attempted - t.completed;
    report.add("setup_s", median(setups), "s");
    report.add("throughput_per_s", m.throughput, "1/s");
    report.add("latency_p50_ms", m.p50_ms, "ms");
    report.add("latency_p99_ms", m.p99_ms, "ms");
    report.add("served_share", t.served_share(), "share");
    report.add("cpu_us_per_op", m.cpu_us_per_op, "us");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("availability",
               served_window_share(p.done_s, 0.0, p.elapsed_s, kAvailabilityWindow),
               "share");
    report.add("avg_nodes", kReplicas, "nodes");
    report.diagnostics.push_back({"windows", static_cast<double>(m.windows), "count"});
    report.diagnostics.push_back(
        {"min_window_samples", static_cast<double>(m.min_window_samples), "count"});
    report.diagnostics.push_back(
        {"run_p99_ms", percentile(t.latency_ms, 99.0).value_or(0.0), "ms"});
    const double max_ms =
        t.latency_ms.empty()
            ? 0.0
            : *std::max_element(t.latency_ms.begin(), t.latency_ms.end());
    report.diagnostics.push_back({"max_latency_ms", max_ms, "ms"});
    report.diagnostics.push_back(
        {"late_requests", static_cast<double>(t.completed - t.served), "count"});
    if (shape.paced_rate > 0.0) {
      const auto lag = percentile(generator_lag_ms(p.paced), 99.0);
      report.diagnostics.push_back({"generator_lag_p99_ms", lag.value_or(0.0), "ms"});
    }
    return report;
  }

  // Traced run: an untraced pass first (the overhead baseline), then the
  // same fixed work on a cluster wired through the recording transport.
  double untraced_cpu_per_op = 0.0;
  {
    double s = 0.0;
    auto c = set_up(shape, cluster_seed, nullptr, &s, report);
    const Pass p = measure(*c, o.seconds);
    finish(*c, report);
    untraced_cpu_per_op =
        p.cpu_s / static_cast<double>(std::max<std::size_t>(p.latency_s.size(), 1));
  }
  Tracer tracer;
  double s = 0.0;
  auto c = set_up(shape, cluster_seed, &tracer, &s, report);
  const Tracer::Totals before = tracer.totals();
  const Pass p = measure(*c, o.seconds);
  const Tracer::Totals d = tracer.totals() - before;
  const std::size_t warm_and_measured = c->acked_count();
  finish(*c, report);
  const ServiceTally t = tally(shape, p);
  report.attempted = t.attempted;
  report.failed = t.attempted - t.completed;
  const double ops = static_cast<double>(std::max<std::size_t>(t.completed, 1));
  const auto us = [&](Layer l) { return static_cast<double>(d.self_ns_of(l)) * 1e-3 / ops; };
  const double replica = us(Layer::kReplicaRequest) + us(Layer::kReplicaPrepare) +
                         us(Layer::kReplicaCommit) + us(Layer::kReplicaCheckpoint) +
                         us(Layer::kReplicaOther);
  const double client = us(Layer::kClientSubmit) + us(Layer::kClientReply);
  const double send = us(Layer::kNetSend);
  const double trace_cost = us(Layer::kTraceCost);
  const double cpu_per_op = p.cpu_s / ops * 1e6;
  const double residual = cpu_per_op - replica - client - send - trace_cost;
  const auto per_op = [&](int kind) { return static_cast<double>(d.msgs[kind]) / ops; };
  report.add("consensus.replica_self_us_per_op", replica, "us");
  report.add("consensus.replica_self_us.request", us(Layer::kReplicaRequest), "us");
  report.add("consensus.replica_self_us.prepare", us(Layer::kReplicaPrepare), "us");
  report.add("consensus.replica_self_us.commit", us(Layer::kReplicaCommit), "us");
  report.add("consensus.replica_self_us.checkpoint", us(Layer::kReplicaCheckpoint), "us");
  report.add("consensus.msgs_per_op.request", per_op(0), "count");
  report.add("consensus.msgs_per_op.prepare", per_op(1), "count");
  report.add("consensus.msgs_per_op.commit", per_op(2), "count");
  report.add("consensus.msgs_per_op.reply", per_op(3), "count");
  report.add("consensus.msgs_per_op.checkpoint", per_op(4), "count");
  report.add("consensus.client_self_us_per_op", client, "us");
  report.add("consensus.batch_fill", c->batch_fill(), "share");
  report.add("net.send_us_per_op", send, "us");
  report.add("net.bundles_per_op", static_cast<double>(p.bundles) / ops, "count");
  report.add("net.bytes_per_op", static_cast<double>(d.bytes) / ops, "bytes");
  report.add("net.runtime_residual_us_per_op", residual, "us");
  report.add("net.failed_frames", static_cast<double>(c->failed_frames()), "count");
  report.add("crypto.hmac_us_per_kib",
             d.hmac_bytes == 0 ? 0.0
                               : static_cast<double>(d.hmac_ns) * 1e-3 /
                                     (static_cast<double>(d.hmac_bytes) / 1024.0),
             "us");
  report.add("crypto.usig_verifies_per_op",
             static_cast<double>(c->usig_verifies()) /
                 static_cast<double>(std::max<std::size_t>(warm_and_measured, 1)),
             "count");
  if (shape.paced_rate > 0.0) {
    report.add("bench.generator_lag_p99_ms",
               percentile(generator_lag_ms(p.paced), 99.0).value_or(0.0), "ms");
  }
  report.add("bench.trace_overhead_share",
             untraced_cpu_per_op > 0.0
                 ? (cpu_per_op * 1e-6 - untraced_cpu_per_op) / untraced_cpu_per_op
                 : 0.0,
             "share");
  report.diagnostics.push_back({"traced_cpu_us_per_op", cpu_per_op, "us"});
  report.diagnostics.push_back({"untraced_cpu_us_per_op", untraced_cpu_per_op * 1e6, "us"});
  report.diagnostics.push_back({"trace_cost_us_per_op", trace_cost, "us"});
  report.diagnostics.push_back(
      {"replica_client_send_residual_sum_us", replica + client + send + residual, "us"});
  if (!o.trace_out.empty()) {
    const std::size_t n = tracer.write_spans(o.trace_out);
    report.diagnostics.push_back({"spans_written", static_cast<double>(n), "count"});
  }
  return report;
}

}  // namespace

Report run_service_peak(const RunOptions& o) {
  ServiceShape shape;
  shape.lan_delays = false;
  shape.op_bytes = 16;
  shape.work_rate = 7500.0;
  return run_service(shape, o);
}

Report run_service_lan(const RunOptions& o) {
  ServiceShape shape;
  shape.lan_delays = true;
  shape.op_bytes = 256;
  shape.paced_rate = 1000.0;
  shape.work_rate = 1000.0;
  return run_service(shape, o);
}

}  // namespace perfbench
