#include "tolerance/consensus/minbft_replica.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "tolerance/util/ensure.hpp"

namespace tolerance::consensus {


namespace {

/// Cap on the verified-request digest cache; cleared wholesale (determinism
/// beats LRU bookkeeping at this scale) when exceeded.
constexpr std::size_t kVerifiedRequestCap = 8192;
/// Cap on the valve's rejected-request memory (err* retry detection); same
/// clear-wholesale policy — a brief signal loss, not a correctness issue.
constexpr std::size_t kRejectedKeyCap = 16384;
/// View-change timeout multiplier while this replica's own valve is closed
/// (SOFT/HARD).  Admission decisions are per-replica, so under overload a
/// follower may admit a request the leader shed — "my admitted request is
/// not executing" is then evidence of load, not of a faulty leader, and a
/// failover (the most expensive thing a saturated cluster can do) would
/// make the overload strictly worse.  The timer stretches rather than
/// disarms: a genuinely dead leader is still denounced, just patiently.
constexpr double kOverloadViewChangeStretch = 8.0;
/// Entries kept by the per-replica USIG verification cache.
constexpr std::size_t kUsigCacheCapacity = 4096;
/// Seed of the verify caches' hash tables.  Clients choose request digests
/// and Byzantine replicas choose USIG identifiers, so the seed is private
/// per replica; the salt separates it from the keys the same seed derives.
std::uint64_t cache_hash_seed(std::uint64_t key_seed, ReplicaId id) {
  constexpr std::uint64_t kSalt = 0x68617368u;  // "hash"
  return crypto::seeded_mix(key_seed ^ kSalt, id);
}
/// Grace period before fetching a PREPARE that a commit quorum refers to
/// but never arrived here.  Commit-before-prepare is usually plain
/// reordering (the prepare is buffered in a flush window or a slower
/// bundle) and resolves by itself; only when the prepare is still missing
/// after this long was it dropped, and a relay is worth the traffic.
constexpr double kPrepareFetchGrace = 0.02;

}  // namespace

// ---------------------------------------------------------------------------
// ReplicatedService
// ---------------------------------------------------------------------------

std::string ReplicatedService::execute(const std::string& operation) {
  log_.push_back(operation);
  // Chained digest: digest' = H(digest || op).
  crypto::Sha256 h;
  h.update(reinterpret_cast<const std::uint8_t*>(digest_.data()),
           digest_.size());
  h.update(operation);
  digest_ = h.finalize();
  // Result of the paper's web service: reads return state size, writes ack.
  return "ok:" + std::to_string(log_.size());
}

void ReplicatedService::install(std::vector<std::string> log,
                                crypto::Digest digest) {
  log_ = std::move(log);
  digest_ = digest;
}

crypto::Digest ReplicatedService::chain_digest(
    const std::vector<std::string>& log) {
  crypto::Digest digest{};
  for (const std::string& operation : log) {
    crypto::Sha256 h;
    h.update(reinterpret_cast<const std::uint8_t*>(digest.data()),
             digest.size());
    h.update(operation);
    digest = h.finalize();
  }
  return digest;
}

// ---------------------------------------------------------------------------
// MinBftReplica
// ---------------------------------------------------------------------------

MinBftReplica::MinBftReplica(ReplicaId id, std::vector<ReplicaId> membership,
                             MinBftConfig config, MinBftTransport& net,
                             std::shared_ptr<crypto::KeyRegistry> registry,
                             std::uint64_t key_seed, std::uint64_t usig_epoch)
    : id_(id), membership_(std::move(membership)), config_(config), net_(&net),
      registry_(std::move(registry)),
      signer_(id, registry_->register_principal(id, key_seed)),
      usig_(id, registry_->register_principal(id + crypto::kUsigPrincipalOffset,
                                              key_seed ^ 0x5a5au),
            usig_epoch),
      admission_(config.admission), st_rng_(key_seed ^ 0x57a7eull),
      usig_cache_(kUsigCacheCapacity, cache_hash_seed(key_seed, id)),
      verified_requests_(0,
                         crypto::DigestHash{cache_hash_seed(key_seed, id)}) {
  TOL_ENSURE(!membership_.empty(), "membership must be non-empty");
  TOL_ENSURE(config_.batch_size >= 1, "batch_size must be >= 1");
  TOL_ENSURE(config_.pipeline_depth >= 1, "pipeline_depth must be >= 1");
  std::sort(membership_.begin(), membership_.end());
  TOL_ENSURE(std::find(membership_.begin(), membership_.end(), id_) !=
                 membership_.end(),
             "replica must be part of the membership");
  // A bumped USIG epoch marks a recovery restart: volatile state (including
  // every vote this replica ever cast) is gone, so start passive until a
  // state transfer rebuilds a committed prefix to stand on (opt-in; see
  // MinBftConfig::passive_recovery).
  recovering_ = config_.passive_recovery && usig_epoch > 0;
}

MinBftReplica::~MinBftReplica() {
  disarm_view_change_timer();
  disarm_batch_timer();
  disarm_state_transfer_timer();
  if (repair_timer_armed_) net_->cancel(repair_timer_);
  for (const auto& [token, timer] : grace_timers_) {
    (void)token;
    net_->cancel(timer);
  }
}

ReplicaId MinBftReplica::current_leader() const {
  return membership_[static_cast<std::size_t>(view_ % membership_.size())];
}

void MinBftReplica::broadcast(const MinBftMsg& msg) {
  if (config_.cpu_cost_per_send > 0.0 && membership_.size() > 1) {
    if (config_.mac_flush_window <= 0.0) {
      net_->consume_cpu(id_, config_.cpu_cost_per_send *
                                 static_cast<double>(membership_.size() - 1));
    } else {
      // Authenticator batching (sim-lane model): one MAC covers every
      // message flushed to a destination within the window, so the
      // per-send cost is charged per destination at most once per window.
      const double now = net_->now();
      int charged = 0;
      for (const ReplicaId peer : membership_) {
        if (peer == id_) continue;
        const auto it = last_mac_charge_.find(peer);
        if (it == last_mac_charge_.end() ||
            now - it->second >= config_.mac_flush_window) {
          last_mac_charge_[peer] = now;
          ++charged;
        }
      }
      if (charged > 0) {
        net_->consume_cpu(id_, config_.cpu_cost_per_send *
                                   static_cast<double>(charged));
      }
    }
  }
  net_->broadcast(id_, membership_, msg);
}

bool MinBftReplica::verify_request(const Request& req) {
  // The signature must be the claimed client's own — any registered
  // principal can produce *a* valid tag, but only over its own identity.
  if (req.signature.signer != req.client) return false;
  const crypto::Digest d = req.digest();
  if (verified_requests_.count(d) > 0) return true;  // cached verdict
  net_->consume_cpu(id_, config_.crypto_cost_verify);
  if (!registry_->verify(req.payload(), req.signature)) return false;
  if (verified_requests_.size() >= kVerifiedRequestCap) {
    verified_requests_.clear();
  }
  verified_requests_.insert(d);
  return true;
}

bool MinBftReplica::verify_ui(const crypto::Digest& digest,
                              const crypto::UniqueIdentifier& ui) {
  if (const auto cached = usig_cache_.lookup(ui, digest)) return *cached;
  net_->consume_cpu(id_, config_.crypto_cost_verify);
  const bool ok = crypto::Usig::verify(*registry_, digest, ui);
  usig_cache_.insert(ui, digest, ok);
  return ok;
}

bool MinBftReplica::is_member(ReplicaId replica) const {
  return std::find(membership_.begin(), membership_.end(), replica) !=
         membership_.end();
}

bool MinBftReplica::accept_counter(const crypto::UniqueIdentifier& ui) {
  auto& last = last_counter_[ui.replica];
  const auto incoming = std::make_pair(ui.epoch, ui.counter);
  if (incoming <= last) return false;
  last = incoming;
  return true;
}

void MinBftReplica::on_message(net::NodeId from, const MinBftMsg& msg) {
  if (mode_ == ByzantineMode::Silent) return;  // behaviour (b) of §VIII-A
  // A recovering replica is PASSIVE until its first state install: a restart
  // wiped the votes it cast before crashing, so letting it vote again (or
  // contribute an empty prepared-set to a view change) would let a commit
  // quorum it belonged to be contradicted — a fork, observed as divergent
  // committed logs among live replicas.  With it passive, a view change
  // needs every non-crashed replica's proof, and any commit quorum contains
  // at least one of those.  It still processes checkpoints (to learn the
  // stable boundary and trigger/retarget its transfer) and state responses
  // (to finish recovering); everything else is dropped on the floor.
  if (recovering_) {
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, Checkpoint>) {
            handle_checkpoint(m);
          } else if constexpr (std::is_same_v<T, StateResponse>) {
            handle_state_response(m);
          }
        },
        msg);
    publish_progress();
    return;
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          handle_request(m);
        } else if constexpr (std::is_same_v<T, Prepare>) {
          handle_prepare(m);
        } else if constexpr (std::is_same_v<T, Commit>) {
          handle_commit(m);
        } else if constexpr (std::is_same_v<T, Checkpoint>) {
          handle_checkpoint(m);
        } else if constexpr (std::is_same_v<T, ReqViewChange>) {
          handle_req_view_change(m);
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          handle_view_change(m);
        } else if constexpr (std::is_same_v<T, NewView>) {
          handle_new_view(m);
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          handle_state_request(from, m);
        } else if constexpr (std::is_same_v<T, StateResponse>) {
          handle_state_response(m);
        } else if constexpr (std::is_same_v<T, FetchPrepare>) {
          handle_fetch_prepare(m);
        } else if constexpr (std::is_same_v<T, RelayedPrepare>) {
          handle_prepare(m.prepare, /*relayed=*/true);
        } else {
          static_assert(std::is_same_v<T, Reply> ||
                            std::is_same_v<T, Overloaded>,
                        "unhandled message type");
          // Replies and Overloaded rejections are client-side; replicas
          // ignore them.
        }
      },
      msg);
  // Any message may have freed pipeline room (commits executing a batch, a
  // checkpoint advancing the watermark) — flush pending requests.
  try_seal_batches();
  // If execution is now parked on a self-voted entry short of quorum, start
  // the repair clock (idempotent while armed).
  maybe_arm_commit_repair();
  // Every protocol mutation flows through here (timers re-enter via their
  // own broadcasts), so one epilogue publish keeps the watchdog current.
  publish_progress();
}

void MinBftReplica::handle_request(const Request& req) {
  if (executed_requests_.count({req.client, req.request_id}) > 0) {
    // Already applied: the client must have lost our reply — resend it from
    // the cache.
    const auto it = reply_cache_.find(req.client);
    if (it != reply_cache_.end() && it->second.request_id == req.request_id &&
        verify_request(req)) {
      net_->send(id_, req.client, MinBftMsg{it->second});
    }
    return;
  }
  // The admission valve sits before the signature check on purpose: under a
  // 10-100x spike the whole point is to shed load *cheaper* than serving it,
  // and the per-request verify cost is the bulk of the serving cost.  The
  // executed-duplicate path above stays in front of the valve, so a client
  // that only lost a reply is never told to back off.
  if (admit_request(req) != AdmissionOutcome::kAdmit) return;
  if (!verify_request(req)) return;
  if (is_leader() && !in_view_change_) {
    enqueue_request(req);
  } else {
    // Follower: watch for progress; if the request is not executed within
    // Tvc the leader is suspected (Fig. 17b).
    arm_view_change_timer();
  }
}

// ---------------------------------------------------------------------------
// Admission control: the service-boundary feedback loop
// ---------------------------------------------------------------------------

double MinBftReplica::queue_signal() const {
  std::size_t in_flight = 0;
  for (auto it = log_.upper_bound(last_executed_); it != log_.end(); ++it) {
    in_flight += it->second.prepare.requests.size();
  }
  return static_cast<double>(pending_requests_.size() + in_flight +
                             net_->queue_depth(id_));
}

MinBftReplica::AdmissionOutcome MinBftReplica::admit_request(
    const Request& req) {
  if (!config_.admission.enabled) return AdmissionOutcome::kAdmit;
  const double now = net_->now();
  // A retransmission is the client-side timeout made visible — the err*
  // component of the pressure metric.  Two distinguishable cases: the
  // request is carried here (backlogged or in flight), or it was rejected
  // earlier and the client is probing again.  Both are retries for err*,
  // but only a carried request is dropped silently — a previously rejected
  // one must either win a token now or draw a fresh rejection, or the
  // client's backoff loop would starve waiting for a quorum that never
  // re-forms.
  const auto key = std::make_pair(req.client, req.request_id);
  bool carried = pending_keys_.count(key) > 0;
  for (auto it = log_.upper_bound(last_executed_);
       !carried && it != log_.end(); ++it) {
    for (const Request& r : it->second.prepare.requests) {
      if (r.client == req.client && r.request_id == req.request_id) {
        carried = true;
        break;
      }
    }
  }
  const bool retry = carried || rejected_keys_.count(key) > 0;
  admission_.observe_request(retry);
  const double oldest_wait =
      pending_requests_.empty() ? 0.0 : now - backlog_since_;
  admission_.update(now, queue_signal(), oldest_wait);
  if (carried) return AdmissionOutcome::kDuplicate;
  if (admission_.try_admit(now)) {
    rejected_keys_.erase(key);
    return AdmissionOutcome::kAdmit;
  }
  if (rejected_keys_.size() >= kRejectedKeyCap) rejected_keys_.clear();
  rejected_keys_.insert(key);
  send_overloaded(req);
  return AdmissionOutcome::kReject;
}

void MinBftReplica::send_overloaded(const Request& req) {
  Overloaded ov;
  ov.replica = id_;
  ov.client = req.client;
  ov.request_id = req.request_id;
  ov.retry_after_ms = admission_.retry_after_ms();
  ov.mode = static_cast<std::uint8_t>(admission_.mode());
  // Rejections are authenticated (clients only count signed Overloaded
  // messages toward their f+1 backoff quorum, so a spoofed rejection is
  // discarded at verification) but priced at the session-MAC constant, far
  // below a full reply even under a heavyweight signature cost model: a
  // valve whose rejections cost as much as serving would melt under the
  // very storm it exists to shed.
  net_->consume_cpu(id_, crypto::KeyRegistry::kVerifyCost);
  ov.signature = signer_.sign(ov.payload());
  net_->send(id_, req.client, MinBftMsg{ov});
}

// ---------------------------------------------------------------------------
// Batching: accumulate, seal, pipeline
// ---------------------------------------------------------------------------

void MinBftReplica::enqueue_request(const Request& req) {
  const auto key = std::make_pair(req.client, req.request_id);
  if (pending_keys_.count(key) > 0) return;
  // Deduplicate against batches already in flight (executed ones are caught
  // by the executed_requests_ check upstream).
  for (auto it = log_.upper_bound(last_executed_); it != log_.end(); ++it) {
    for (const Request& r : it->second.prepare.requests) {
      if (r.client == req.client && r.request_id == req.request_id) return;
    }
  }
  if (pending_requests_.empty()) backlog_since_ = net_->now();
  pending_requests_.push_back(req);
  pending_keys_.insert(key);
}

SeqNum MinBftReplica::in_flight_batches() const {
  return highest_assigned_ > last_executed_
             ? highest_assigned_ - last_executed_
             : 0;
}

void MinBftReplica::try_seal_batches() {
  if (!is_leader() || in_view_change_) return;
  while (true) {
    bool sealed = false;
    while (!pending_requests_.empty() &&
           in_flight_batches() <
               static_cast<SeqNum>(config_.pipeline_depth)) {
      if (!seal_one_batch()) break;
      sealed = true;
    }
    if (pending_requests_.empty()) {
      disarm_batch_timer();
    } else {
      arm_batch_timer();
    }
    if (!sealed) return;
    // A sealed batch can only execute immediately when f = 0; if it did,
    // the window has room again.
    const SeqNum before = last_executed_;
    try_execute();
    if (last_executed_ == before) return;
  }
}

bool MinBftReplica::seal_one_batch() {
  const SeqNum highest_logged = log_.empty() ? 0 : log_.rbegin()->first;
  const SeqNum seq = std::max(last_executed_, highest_logged) + 1;
  if (seq > stable_checkpoint_ + config_.log_watermark) {
    return false;  // outside the high watermark; client will retransmit
  }
  Prepare p;
  p.view = view_;
  p.seq = seq;
  const std::size_t take = std::min<std::size_t>(
      static_cast<std::size_t>(config_.batch_size), pending_requests_.size());
  for (std::size_t i = 0; i < take; ++i) {
    Request& front = pending_requests_.front();
    pending_keys_.erase({front.client, front.request_id});
    p.requests.push_back(std::move(front));
    pending_requests_.pop_front();
  }
  if (mode_ == ByzantineMode::Random) {
    // Behaviour (c) as leader: smuggle a corrupted operation into the batch
    // under a perfectly valid UI.  The USIG cannot be bypassed, but it signs
    // whatever the (compromised) replica hands it; honest followers catch
    // the forgery via the per-request client-signature check.
    p.requests[0].operation += "|garbage";
    p.invalidate_digests();
  }
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  p.ui = usig_.create(p.body_digest());
  ++batches_proposed_;
  requests_proposed_ += take;
  max_batch_ = std::max(max_batch_, take);
  PendingEntry entry;
  entry.prepare = p;
  entry.commits.insert(id_);  // the leader's PREPARE doubles as its COMMIT
  log_[seq] = std::move(entry);
  highest_assigned_ = std::max(highest_assigned_, seq);
  broadcast(p);
  return true;
}

void MinBftReplica::arm_batch_timer() {
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  batch_timer_ = net_->schedule(id_, config_.batch_timeout, [this]() {
    batch_timer_armed_ = false;
    if (mode_ == ByzantineMode::Silent) return;
    // The timeout half of the seal rule: a partial batch does not wait on
    // the pipeline window forever — at most one batch per timeout period
    // may overshoot the depth, which bounds pending-request latency while
    // keeping the window meaningful under load.  (The watermark still
    // applies inside seal_one_batch.)
    if (!pending_requests_.empty() && is_leader() && !in_view_change_ &&
        in_flight_batches() >=
            static_cast<SeqNum>(config_.pipeline_depth)) {
      if (seal_one_batch()) try_execute();
    }
    try_seal_batches();
    if (!pending_requests_.empty()) arm_batch_timer();
  });
}

void MinBftReplica::disarm_batch_timer() {
  if (!batch_timer_armed_) return;
  net_->cancel(batch_timer_);
  batch_timer_armed_ = false;
}

void MinBftReplica::drop_pending_requests() {
  pending_requests_.clear();
  pending_keys_.clear();
  disarm_batch_timer();
}

void MinBftReplica::resync_assignment_watermark() {
  const SeqNum highest_logged = log_.empty() ? 0 : log_.rbegin()->first;
  highest_assigned_ = std::max(last_executed_, highest_logged);
}

// ---------------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------------

void MinBftReplica::handle_prepare(const Prepare& p, bool relayed) {
  if (p.view != view_ || in_view_change_) return;
  const ReplicaId leader =
      membership_[static_cast<std::size_t>(p.view % membership_.size())];
  if (p.ui.replica != leader || leader == id_) return;
  if (p.requests.empty()) return;  // malformed; honest leaders never send it
  if (!verify_ui(p.body_digest(), p.ui)) return;
  // Monotonic counters prevent replay; the USIG guarantees uniqueness.  A
  // relayed prepare (answering our FetchPrepare) carries a counter that is
  // old by definition — the leader's original broadcast already advanced
  // our window past it — so only the UI itself vouches there.  Replay of a
  // UI-bound prepare is idempotent: the log and checkpoint guards below
  // dedup it.
  if (!relayed && !accept_counter(p.ui)) return;
  if (p.seq <= stable_checkpoint_) return;
  // Every request in the batch must carry its client's own signature — a
  // compromised leader can bind garbage to a valid UI, but it cannot forge
  // client signatures (Prop. 1).  Requests that arrived via their REQUEST
  // broadcast hit the verified-digest cache and cost nothing to re-check.
  for (const Request& r : p.requests) {
    if (!verify_request(r)) {
      denounce_leader();
      return;
    }
  }
  const auto it = log_.find(p.seq);
  if (it != log_.end()) {
    const bool same = crypto::digest_equal(
        it->second.prepare.batch_digest(), p.batch_digest());
    if (!same) {
      // A leader proposing two different batches at one sequence number is
      // faulty: demand a view change.
      denounce_leader();
      return;
    }
    it->second.commits.insert(leader);
  } else {
    PendingEntry entry;
    entry.prepare = p;
    entry.commits.insert(leader);
    log_[p.seq] = std::move(entry);
  }
  // Fold in any COMMIT votes that overtook this prepare (only those that
  // endorse this batch — a stale or corrupt digest never counts).
  const auto early = early_commits_.find(p.seq);
  if (early != early_commits_.end()) {
    PendingEntry& entry = log_[p.seq];
    const crypto::Digest batch = entry.prepare.batch_digest();
    for (const auto& [voter, digest] : early->second) {
      if (crypto::digest_equal(batch, digest)) entry.commits.insert(voter);
    }
    early_commits_.erase(early);
  }
  fetched_.erase(p.seq);
  send_commit(p);
  arm_view_change_timer();
  try_execute();
}

void MinBftReplica::denounce_leader() {
  if (vc_quarantined()) return;
  const ReqViewChange rvc = make_req_view_change(view_ + 1);
  broadcast(rvc);
  handle_req_view_change(rvc);  // count our own vote
}

void MinBftReplica::send_commit(const Prepare& p) {
  Commit c;
  c.view = p.view;
  c.seq = p.seq;
  c.replica = id_;
  c.batch_digest = p.batch_digest();
  if (mode_ == ByzantineMode::Random) {
    // Behaviour (c): participate with garbage — corrupt the digest.  The UI
    // is still well-formed (the USIG cannot be bypassed).
    c.batch_digest[0] ^= 0xff;
  }
  c.leader_ui = p.ui;
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  c.ui = usig_.create(c.body_digest());
  log_[p.seq].commits.insert(id_);
  broadcast(c);
}

void MinBftReplica::resend_commit(SeqNum seq, std::optional<ReplicaId> to) {
  const auto it = log_.find(seq);
  if (it == log_.end()) return;
  const PendingEntry& entry = it->second;
  // Only a vote we genuinely cast, for the current view's prepare, can be
  // re-signed: a fresh UI over anything else would be a fabricated vote.
  if (entry.commits.count(id_) == 0) return;
  if (entry.prepare.view != view_ || entry.prepare.seq != seq) return;
  Commit c;
  c.view = entry.prepare.view;
  c.seq = seq;
  c.replica = id_;
  c.batch_digest = entry.prepare.batch_digest();
  if (mode_ == ByzantineMode::Random) c.batch_digest[0] ^= 0xff;
  c.leader_ui = entry.prepare.ui;
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  c.ui = usig_.create(c.body_digest());
  if (to.has_value()) {
    net_->send(id_, *to, MinBftMsg{c});
  } else {
    broadcast(c);
  }
}

void MinBftReplica::maybe_arm_commit_repair() {
  if (config_.commit_repair_timeout <= 0.0) return;  // disabled (sim lane)
  if (repair_timer_armed_ || in_view_change_) return;
  const SeqNum next = last_executed_ + 1;
  const auto it = log_.find(next);
  if (it != log_.end()) {
    // Entry present: repairable once we voted and the quorum stalled.
    const PendingEntry& e = it->second;
    if (e.commits.count(id_) == 0) return;
    if (static_cast<int>(e.commits.size()) >= config_.f + 1) return;
  } else {
    // Entry absent: repairable only if something proves the cluster moved
    // past us — a stashed commit vote for it, or a logged later prepare.
    // (Neither present is the ordinary quiescent state: nothing to do.)
    if (early_commits_.count(next) == 0 && log_.upper_bound(next) == log_.end())
      return;
  }
  repair_timer_armed_ = true;
  repair_snapshot_ = last_executed_;
  repair_timer_ =
      net_->schedule(id_, config_.commit_repair_timeout, [this]() {
        repair_timer_armed_ = false;
        on_commit_repair();
      });
}

void MinBftReplica::on_commit_repair() {
  if (in_view_change_) return;
  // Any execution progress during the window means the pipeline is moving,
  // just slowly (overload, deep queues) — stay quiet and keep watching.
  // Resending into a merely-slow cluster adds crypto load it cannot spare.
  if (last_executed_ != repair_snapshot_) {
    maybe_arm_commit_repair();
    return;
  }
  const SeqNum next = last_executed_ + 1;
  if (next <= stable_checkpoint_) return;  // state transfer owns this gap
  // Repair the whole stalled frontier in one round, not just the next
  // seq: under loss each replica accumulates a multi-entry gap, and
  // healing one seq per window lets the cluster drift apart faster than
  // the repair closes holes.  The frontier is bounded by the highest
  // evidence we hold (logged prepare or stashed vote), capped to keep a
  // pathological gap from bursting the transport.
  SeqNum high = next;
  if (!log_.empty()) high = std::max(high, log_.rbegin()->first);
  if (!early_commits_.empty())
    high = std::max(high, early_commits_.rbegin()->first);
  high = std::min(high, next + 63);
  for (SeqNum s = next; s <= high; ++s) {
    const auto it = log_.find(s);
    if (it != log_.end()) {
      const PendingEntry& e = it->second;
      if (e.commits.count(id_) != 0 &&
          static_cast<int>(e.commits.size()) < config_.f + 1) {
        // A fully-prepared, self-voted entry sat a whole repair window
        // short of quorum: the missing commits were lost in transit (they
        // are never retransmitted on their own).  Re-broadcast our vote;
        // any peer that already counted it answers the duplicate by
        // echoing its own vote back (handle_commit), closing the hole
        // from either side.
        resend_commit(s, std::nullopt);
      }
    } else {
      // The prepare itself is missing.  The eager fetch path waits for
      // f+1 distinct commit voters, which a single crash can make
      // unreachable (n = 2f+1); here any single stashed vote — or a later
      // logged prepare — is evidence enough to ask for a relay.  Ask
      // everyone: a targeted peer can itself have lost the entry (its log
      // cleared by a state install), and re-asking one dead end forever
      // wedges us.  Peers without the entry ignore the fetch.
      if (early_commits_.count(s) != 0 ||
          log_.upper_bound(s) != log_.end()) {
        broadcast(MinBftMsg{FetchPrepare{s, id_}});
      }
    }
  }
  maybe_arm_commit_repair();
}

void MinBftReplica::handle_commit(const Commit& c) {
  if (c.view != view_ || in_view_change_) return;
  if (c.replica == id_) return;
  // Only current members vote: an evicted replica's USIG may still certify
  // fresh counters, but its identifiers are never accepted after the evict
  // operation executed (§VII-C).
  if (!is_member(c.replica) || c.replica != c.ui.replica) return;
  if (!verify_ui(c.body_digest(), c.ui)) return;
  if (!accept_counter(c.ui)) return;
  if (c.seq <= stable_checkpoint_) return;
  const auto it = log_.find(c.seq);
  if (it == log_.end()) {
    // Commit precedes prepare: either plain reordering (the prepare is a
    // moment away) or the prepare was dropped.  Stash the verified vote —
    // its counter is consumed, the committer will not resend it — and once
    // a full f+1 quorum piles up with still no prepare, stop waiting and
    // fetch a relay of the prepare from this committer.  Without the fetch
    // a lost PREPARE stalls execution at the gap until the next stable
    // checkpoint triggers state transfer.
    if (c.seq > stable_checkpoint_ + config_.log_watermark) return;
    auto& votes = early_commits_[c.seq];
    votes[c.replica] = c.batch_digest;
    if (static_cast<int>(votes.size()) >= config_.f + 1 &&
        fetched_.insert(c.seq).second) {
      // After a grace period: commit-before-prepare is usually reordering
      // (the prepare sits in a flush window) and fetching eagerly would
      // relay full batches for prepares that were a moment away.
      const View v = view_;
      const SeqNum seq = c.seq;
      const ReplicaId committer = c.replica;
      const std::uint64_t token = next_grace_token_++;
      grace_timers_[token] = net_->schedule(
          id_, kPrepareFetchGrace, [this, token, v, seq, committer]() {
            grace_timers_.erase(token);
            if (view_ != v || in_view_change_) return;
            if (seq <= stable_checkpoint_ || log_.count(seq) != 0) {
              return;  // resolved itself
            }
            net_->send(id_, committer, MinBftMsg{FetchPrepare{seq, id_}});
          });
    }
    return;
  }
  // Votes only count when they endorse the prepared batch.
  if (!crypto::digest_equal(it->second.prepare.batch_digest(),
                            c.batch_digest)) {
    return;
  }
  if (!it->second.commits.insert(c.replica).second) {
    // A vote we already counted can only arrive re-signed (replays fail the
    // USIG counter check above): it is a repair nudge from a peer whose
    // quorum never completed.  Echo our own vote back so it can close the
    // hole — commits are otherwise never retransmitted.  At most one echo
    // per repair window per entry: our echo is itself a duplicate at a
    // peer that already counted us, and unthrottled mutual echoes become a
    // message storm.
    const double now = net_->now();
    if (now - it->second.last_echo >= config_.commit_repair_timeout) {
      it->second.last_echo = now;
      resend_commit(c.seq, c.replica);
    }
    return;
  }
  try_execute();
}

void MinBftReplica::try_execute() {
  bool progressed = false;
  while (true) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) break;
    if (static_cast<int>(it->second.commits.size()) < config_.f + 1) break;
    if (!it->second.executed) {
      execute_entry(it->second);
      it->second.executed = true;
      progressed = true;
    }
    ++last_executed_;
    if (last_executed_ % config_.checkpoint_period == 0) emit_checkpoint();
  }
  if (progressed) {
    // Progress observed: the leader is alive.
    disarm_view_change_timer();
  }
}

void MinBftReplica::send_reply(const Request& req, std::string result) {
  if (mode_ == ByzantineMode::Random) result = "garbage";
  Reply reply;
  reply.replica = id_;
  reply.client = req.client;
  reply.request_id = req.request_id;
  reply.result = std::move(result);
  net_->consume_cpu(id_, config_.crypto_cost_reply);
  reply.signature = signer_.sign(reply.payload());
  net_->send(id_, req.client, MinBftMsg{reply});
  reply_cache_[req.client] = std::move(reply);
}

void MinBftReplica::execute_entry(const PendingEntry& entry) {
  // Execution and REPLYs fan out per request of the batch.
  for (const Request& req : entry.prepare.requests) {
    if (!executed_requests_.insert({req.client, req.request_id}).second) {
      continue;  // re-proposed across a view change and already executed
    }
    std::string result = service_.execute(req.operation);
    apply_reconfiguration(req.operation);
    send_reply(req, std::move(result));
  }
}

void MinBftReplica::apply_reconfiguration(const std::string& op) {
  // join:<id> / evict:<id> — ordered through consensus (§VII-C), so every
  // correct replica applies the same membership change at the same sequence
  // number, which is what makes the protocol reconfigurable.
  if (op.rfind("join:", 0) == 0) {
    const ReplicaId node = static_cast<ReplicaId>(std::stoul(op.substr(5)));
    if (std::find(membership_.begin(), membership_.end(), node) ==
        membership_.end()) {
      membership_.push_back(node);
      std::sort(membership_.begin(), membership_.end());
    }
  } else if (op.rfind("evict:", 0) == 0) {
    const ReplicaId node = static_cast<ReplicaId>(std::stoul(op.substr(6)));
    membership_.erase(
        std::remove(membership_.begin(), membership_.end(), node),
        membership_.end());
  }
}

void MinBftReplica::emit_checkpoint() {
  Checkpoint cp;
  cp.replica = id_;
  cp.last_executed = last_executed_;
  cp.state_digest = service_.state_digest();
  // Remember the exact slice behind this boundary: if this checkpoint
  // stabilizes, state responses vouch for it (the digest alone cannot
  // reconstruct which operations it covers).
  checkpoint_anchors_[cp.last_executed] = {service_.log().size(),
                                           cp.state_digest};
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  cp.ui = usig_.create(cp.body_digest());
  checkpoint_votes_[cp.last_executed][cp.state_digest][id_] = cp;
  broadcast(cp);
}

void MinBftReplica::handle_checkpoint(const Checkpoint& c) {
  if (c.last_executed <= stable_checkpoint_) return;
  if (!is_member(c.replica) || c.replica != c.ui.replica) return;
  if (!verify_ui(c.body_digest(), c.ui)) return;
  auto& votes = checkpoint_votes_[c.last_executed][c.state_digest];
  votes[c.replica] = c;
  if (static_cast<int>(votes.size()) >= config_.f + 1) {
    // The quorum doubles as the checkpoint certificate future view changes
    // carry to back their stable_seq claim.
    stable_cert_.clear();
    for (const auto& [voter, cp] : votes) {
      (void)voter;
      stable_cert_.push_back(cp);
    }
    garbage_collect(c.last_executed);
  }
}

void MinBftReplica::garbage_collect(SeqNum stable) {
  if (stable <= stable_checkpoint_) return;
  stable_checkpoint_ = stable;
  log_.erase(log_.begin(), log_.lower_bound(stable + 1));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.lower_bound(stable + 1));
  // Keep the stable boundary's own anchor — it is what state responses ship.
  checkpoint_anchors_.erase(checkpoint_anchors_.begin(),
                            checkpoint_anchors_.lower_bound(stable));
  early_commits_.erase(early_commits_.begin(),
                       early_commits_.lower_bound(stable + 1));
  fetched_.erase(fetched_.begin(), fetched_.lower_bound(stable + 1));
  // A replica that fell behind the stable checkpoint catches up via state
  // transfer rather than replay (Fig. 17d).
  if (last_executed_ < stable) request_state_transfer();
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

ReqViewChange MinBftReplica::make_req_view_change(View to_view) {
  ReqViewChange rvc;
  rvc.replica = id_;
  rvc.from_view = view_;
  rvc.to_view = to_view;
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  rvc.signature = signer_.sign(rvc.payload());
  return rvc;
}

void MinBftReplica::arm_view_change_timer() {
  if (vc_timer_armed_) return;
  vc_timer_armed_ = true;
  double timeout = config_.view_change_timeout;
  if (config_.admission.enabled &&
      admission_.mode() != AdmissionMode::kNormal) {
    timeout *= kOverloadViewChangeStretch;
  }
  vc_timer_ = net_->schedule(id_, timeout, [this]() {
    vc_timer_armed_ = false;
    if (mode_ == ByzantineMode::Silent) return;
    // Overload may have been declared AFTER the timer was armed (a spike's
    // first wave is admitted in NORMAL mode, whose timer is the short flat
    // one).  Re-check at fire time: while the valve is closed, missing
    // progress is load evidence, so re-arm patiently instead of denouncing.
    if (config_.admission.enabled &&
        admission_.mode() != AdmissionMode::kNormal) {
      arm_view_change_timer();
      return;
    }
    // A quarantined replica (fresh state install) casts no view-change
    // votes; re-arm and let the un-wiped majority drive any change.
    if (vc_quarantined()) {
      arm_view_change_timer();
      return;
    }
    // No progress within Tvc: ask everyone to move to the next view.
    const ReqViewChange rvc = make_req_view_change(view_ + 1);
    broadcast(rvc);
    arm_view_change_timer();
    handle_req_view_change(rvc);  // count our own vote
  });
}

void MinBftReplica::disarm_view_change_timer() {
  if (!vc_timer_armed_) return;
  net_->cancel(vc_timer_);
  vc_timer_armed_ = false;
}

void MinBftReplica::handle_req_view_change(const ReqViewChange& r) {
  if (r.to_view <= view_) return;
  // Votes count only from authenticated current members: the claimed sender
  // must be the signer, the signature must verify — unconditionally, so a
  // network-delivered message spoofing the receiver's own id is rejected
  // too (the genuine local self-call is signed by make_req_view_change) —
  // and evicted replicas (whose keys remain valid) are excluded.
  if (!is_member(r.replica) || r.signature.signer != r.replica) return;
  net_->consume_cpu(id_, config_.crypto_cost_verify);
  if (!registry_->verify(r.payload(), r.signature)) return;
  auto& votes = view_change_requests_[r.to_view];
  votes.insert(r.replica);
  if (static_cast<int>(votes.size()) >= config_.f + 1) {
    start_view_change(r.to_view);
  }
}

SeqNum MinBftReplica::certified_stable(const ViewChange& proof) {
  if (proof.stable_seq == 0) return 0;  // genesis needs no certificate
  std::map<crypto::Digest, std::set<ReplicaId>, std::less<crypto::Digest>>
      votes;
  for (const Checkpoint& c : proof.checkpoint_cert) {
    if (c.last_executed != proof.stable_seq) continue;
    if (!is_member(c.replica) || c.replica != c.ui.replica) continue;
    if (!verify_ui(c.body_digest(), c.ui)) continue;
    votes[c.state_digest].insert(c.replica);
  }
  for (const auto& [digest, voters] : votes) {
    (void)digest;
    if (static_cast<int>(voters.size()) >= config_.f + 1) {
      return proof.stable_seq;
    }
  }
  return 0;
}

std::vector<Prepare> MinBftReplica::assemble_reproposals(
    const std::vector<ViewChange>& proofs, View new_view) {
  // Every rule below is a function of the proof set alone — never of local
  // state, which differs between replicas — so the new leader and every
  // follower compute byte-identical reproposals from the same NEW-VIEW.
  // (One caveat: membership_ and f are consensus-ordered state, so replicas
  // mid-reconfiguration can transiently disagree on them and an honest
  // NEW-VIEW may be rejected; the view-change timer retries until the
  // memberships converge, trading a bounded liveness hiccup for the safety
  // of strict validation.)  The rules:
  //
  //  * The fill starts above the highest *certified* stable checkpoint and
  //    is a contiguous range: try_execute only advances over contiguous
  //    seqs and seal_one_batch only assigns above the highest logged one,
  //    so a dropped seq would be a hole no replica could ever fill or pass
  //    — a permanent stall.  A stable_seq claim counts only when its f+1
  //    checkpoint certificate verifies (else a single compromised member
  //    could inflate it and displace the genuinely prepared suffix), it is
  //    saturated so a forged huge value cannot wrap the arithmetic, and the
  //    range is capped at one watermark (honest prepares never exceed it),
  //    so a forged huge prepare seq cannot force millions of null batches
  //    either.
  //  * Per seq the highest-view candidate wins, but only among batches
  //    certified by their own view's leader USIG (a forged later-view
  //    wrapper around replayed requests fails this) whose requests all carry
  //    valid client signatures (a compromised ex-leader's garbage under a
  //    valid UI fails this) — falling back to a verifiable lower-view batch
  //    keeps the real requests the garbage tried to displace.
  //  * A seq with no surviving candidate gets a null batch (PBFT-style null
  //    request): it executes as a no-op and clients retransmit anything it
  //    displaced.
  constexpr SeqNum kClaimCeiling = std::numeric_limits<SeqNum>::max() / 2;
  std::map<SeqNum, std::vector<Prepare>> candidates;
  SeqNum stable = 0;
  for (const ViewChange& proof : proofs) {
    stable = std::max(stable, std::min(certified_stable(proof), kClaimCeiling));
    for (const PreparedProof& p : proof.prepared) {
      candidates[p.prepare.seq].push_back(p.prepare);
    }
  }
  const SeqNum fill_cap = stable + config_.log_watermark;
  SeqNum hi = stable;
  for (auto it = candidates.upper_bound(stable);
       it != candidates.end() && it->first <= fill_cap; ++it) {
    hi = it->first;
  }
  std::vector<Prepare> reproposed;
  for (SeqNum seq = stable + 1; seq <= hi; ++seq) {
    Prepare p;
    p.view = new_view;
    p.seq = seq;
    const auto cand_it = candidates.find(seq);
    if (cand_it != candidates.end()) {
      std::stable_sort(cand_it->second.begin(), cand_it->second.end(),
                       [](const Prepare& a, const Prepare& b) {
                         return a.view > b.view;
                       });
      for (Prepare& cand : cand_it->second) {
        if (cand.requests.empty()) continue;
        const ReplicaId cand_leader = membership_[static_cast<std::size_t>(
            cand.view % membership_.size())];
        if (cand.ui.replica != cand_leader) continue;
        if (!verify_ui(cand.body_digest(), cand.ui)) continue;
        bool batch_ok = true;
        for (const Request& r : cand.requests) {
          if (!verify_request(r)) {
            batch_ok = false;
            break;
          }
        }
        if (!batch_ok) continue;
        p.requests = std::move(cand.requests);
        break;
      }
    }
    reproposed.push_back(std::move(p));
  }
  return reproposed;
}

ViewChange MinBftReplica::make_view_change(View to_view) {
  ViewChange vc;
  vc.replica = id_;
  vc.to_view = to_view;
  vc.stable_seq = stable_checkpoint_;
  vc.checkpoint_cert = stable_cert_;
  for (const auto& [seq, entry] : log_) {
    (void)seq;
    vc.prepared.push_back(PreparedProof{entry.prepare});
  }
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  vc.ui = usig_.create(vc.body_digest());
  return vc;
}

void MinBftReplica::start_view_change(View to_view) {
  if (to_view <= view_) return;
  // Quarantined after a state install: our prepared set is amnesiac, so we
  // contribute no proof.  We keep operating in the current view and adopt
  // the outcome when the new leader's NEW-VIEW arrives (handle_new_view
  // accepts any newer view without a proof from us).
  if (vc_quarantined()) return;
  in_view_change_ = true;
  // Stashed early commits are votes for the dying view; the new view
  // re-proposes undecided entries with fresh prepares and commits.
  early_commits_.clear();
  fetched_.clear();
  disarm_view_change_timer();
  disarm_batch_timer();  // sealing is paused until the new view installs
  const ViewChange vc = make_view_change(to_view);
  const ReplicaId new_leader =
      membership_[static_cast<std::size_t>(to_view % membership_.size())];
  if (new_leader == id_) {
    handle_view_change(vc);
  } else {
    net_->send(id_, new_leader, MinBftMsg{vc});
  }
}

void MinBftReplica::handle_view_change(const ViewChange& vc) {
  if (vc.to_view <= view_) return;
  // A quarantined leader-elect must not assemble the NEW-VIEW: the
  // have_own splice below would inject its amnesiac prepared set into the
  // reproposal derivation.  The change stalls until peers escalate to a
  // view led by an un-wiped replica (a liveness corner only when a crash
  // and a recovery overlap, i.e. beyond the f the quorums tolerate).
  if (vc_quarantined()) return;
  const ReplicaId expected_leader =
      membership_[static_cast<std::size_t>(vc.to_view % membership_.size())];
  if (expected_leader != id_) return;
  // The proof must come from a current member whose own USIG certifies it —
  // a detached replica must not be able to forge proofs "from" live members.
  // Verified unconditionally, like handle_req_view_change: a network message
  // spoofing the leader's own id would otherwise be stored unverified,
  // suppress the genuine self-proof (per-replica dedup + the have_own check
  // below), and poison nv.proofs so every follower rejects the NEW-VIEW.
  // The genuine local self-call is signed by make_view_change and passes.
  if (!is_member(vc.replica) || vc.replica != vc.ui.replica) return;
  if (!verify_ui(vc.body_digest(), vc.ui)) return;
  auto& proofs = view_changes_[vc.to_view];
  for (const ViewChange& existing : proofs) {
    if (existing.replica == vc.replica) return;
  }
  proofs.push_back(vc);
  if (static_cast<int>(proofs.size()) < config_.f + 1) return;

  // The leader's own prepared log joins the proof set when its own view
  // change did not arrive through the quorum path: its entries are
  // reproposal candidates too, and its stable checkpoint is corroborated to
  // followers the same way every other proof's is (the fill below starts
  // above it, and followers bound the reproposed range by the proofs they
  // can see).
  const bool have_own =
      std::any_of(proofs.begin(), proofs.end(),
                  [&](const ViewChange& p) { return p.replica == id_; });
  if (!have_own) proofs.push_back(make_view_change(vc.to_view));

  NewView nv;
  nv.leader = id_;
  nv.view = vc.to_view;
  nv.proofs = proofs;
  view_ = nv.view;
  in_view_change_ = false;
  view_changes_.erase(nv.view);
  view_change_requests_.erase(nv.view);
  // Re-prepare the undecided suffix under the new view with fresh UIs.  The
  // selection is a deterministic function of the proof set (see
  // assemble_reproposals): followers recompute it from nv.proofs and reject
  // any NEW-VIEW that deviates, so even a compromised leader could not
  // tamper with it here.
  nv.reproposed = assemble_reproposals(nv.proofs, nv.view);
  log_.clear();
  for (Prepare& p : nv.reproposed) {
    net_->consume_cpu(id_, config_.crypto_cost_sign);
    p.ui = usig_.create(p.body_digest());
    if (p.seq <= stable_checkpoint_) continue;
    PendingEntry entry;
    entry.prepare = p;
    entry.commits.insert(id_);
    log_[p.seq] = std::move(entry);
  }
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  nv.ui = usig_.create(nv.body_digest());
  resync_assignment_watermark();
  broadcast(nv);
  try_execute();
  // The new leader drains any requests that queued up during the change.
  try_seal_batches();
}

void MinBftReplica::handle_new_view(const NewView& nv) {
  if (nv.view <= view_ && !(in_view_change_ && nv.view == view_)) return;
  const ReplicaId expected_leader =
      membership_[static_cast<std::size_t>(nv.view % membership_.size())];
  // The NEW-VIEW must be certified by the claimed (and expected) leader's
  // own USIG — a detached replica's valid-but-foreign UI must not install a
  // view on the leader's behalf.
  if (nv.leader != expected_leader || nv.ui.replica != nv.leader) return;
  if (!verify_ui(nv.body_digest(), nv.ui)) return;
  // Each of the f+1 proofs must be a verifiable view change from a distinct
  // current member; fabricated or duplicated proofs do not form a quorum.
  std::set<ReplicaId> proof_senders;
  for (const ViewChange& proof : nv.proofs) {
    if (!is_member(proof.replica) || proof.replica != proof.ui.replica) {
      return;
    }
    // A proof must be *for this view change*: a relayed NEW-VIEW stuffed
    // with genuine-but-stale proofs from other views would otherwise steer
    // the reproposal recomputation below.
    if (proof.to_view != nv.view) return;
    if (!verify_ui(proof.body_digest(), proof.ui)) {
      return;
    }
    proof_senders.insert(proof.replica);
  }
  if (static_cast<int>(proof_senders.size()) < config_.f + 1) return;
  // The reproposed suffix must be exactly what assemble_reproposals derives
  // from the carried proofs: the selection is deterministic, so any
  // deviation — a null batch where a genuinely prepared one exists, a
  // smuggled garbage batch, a hole, a range floating above an unfillable
  // gap, a watermark-busting run of nulls — is a Byzantine leader's
  // fabrication and the NEW-VIEW is not installed.  (Null batches where no
  // candidate survives are legal, unlike live PREPAREs: they execute as
  // no-ops.)
  const std::vector<Prepare> expected =
      assemble_reproposals(nv.proofs, nv.view);
  if (nv.reproposed.size() != expected.size()) return;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Prepare& got = nv.reproposed[i];
    if (got.view != nv.view || got.seq != expected[i].seq) return;
    if (!crypto::digest_equal(got.batch_digest(),
                              expected[i].batch_digest())) {
      return;
    }
    // Each reproposal must carry the new leader's own USIG, like a live
    // PREPARE: installing one with a garbage UI would poison the entries we
    // log and later carry as view-change candidates ourselves (their
    // failed UI check would null them out in the next reassembly).
    if (got.ui.replica != nv.leader) return;
    if (!verify_ui(got.body_digest(), got.ui)) return;
  }
  view_ = nv.view;
  in_view_change_ = false;
  disarm_view_change_timer();
  log_.clear();
  for (const Prepare& p : nv.reproposed) {
    if (p.seq <= stable_checkpoint_) continue;
    PendingEntry entry;
    entry.prepare = p;
    entry.commits.insert(nv.leader);
    log_[p.seq] = std::move(entry);
    send_commit(p);
  }
  resync_assignment_watermark();
  if (!is_leader()) {
    // Requests enqueued while we led an earlier view are the new leader's
    // problem now; clients retransmit them.
    drop_pending_requests();
  }
  try_execute();
  try_seal_batches();
}

// ---------------------------------------------------------------------------
// State transfer
// ---------------------------------------------------------------------------

void MinBftReplica::handle_fetch_prepare(const FetchPrepare& m) {
  if (!is_member(m.requester) || m.requester == id_) return;
  const auto it = log_.find(m.seq);
  if (it == log_.end()) return;  // checkpointed away or never seen
  // No signing needed: the prepare's own leader UI authenticates it at the
  // receiver no matter who relays it.
  net_->send(id_, m.requester, MinBftMsg{RelayedPrepare{it->second.prepare}});
}

void MinBftReplica::request_state_transfer() {
  // Idempotent while a cycle runs: garbage_collect fires on every checkpoint
  // quorum observed while behind, and re-broadcasting each time would turn
  // one recovery into a request storm.  The live cycle's deadline timer
  // already guarantees a retry if the outstanding request went nowhere.
  if (st_active_) return;
  st_active_ = true;
  st_attempt_ = 0;
  send_state_request();
}

void MinBftReplica::send_state_request() {
  ++st_attempt_;
  ++st_attempts_;
  if (st_attempt_ > 1) ++st_retries_;
  StateRequest req;
  req.replica = id_;
  req.ops_executed = service_.log().size();
  if (st_attempt_ == 1) {
    // First shot fans out to everyone: the fastest f+1 honest responders
    // form the digest quorum, exactly the pre-retry behaviour.
    broadcast(MinBftMsg{req});
  } else {
    // Re-request from a rotating window of f+1 peers.  Rotation routes
    // around crashed or Byzantine-silent peers (a fixed window could be all
    // dead); the f+1 width bounds response amplification while still
    // guaranteeing an honest member in every window.
    std::vector<ReplicaId> peers;
    peers.reserve(membership_.size());
    for (const ReplicaId peer : membership_) {
      if (peer != id_) peers.push_back(peer);
    }
    if (!peers.empty()) {
      const std::size_t window =
          std::min(peers.size(), static_cast<std::size_t>(config_.f) + 1);
      for (std::size_t i = 0; i < window; ++i) {
        net_->send(id_, peers[(st_rotation_ + i) % peers.size()],
                   MinBftMsg{req});
      }
      st_rotation_ = (st_rotation_ + window) % peers.size();
    }
  }
  arm_state_transfer_timer();
  publish_progress();
}

void MinBftReplica::arm_state_transfer_timer() {
  disarm_state_transfer_timer();
  double deadline = config_.state_transfer_timeout;
  for (int i = 1; i < st_attempt_; ++i) {
    deadline *= config_.state_transfer_backoff;
  }
  // Private jitter stream: simultaneous recoverers desynchronize without
  // perturbing the transport's seeded loss/reorder draws.
  deadline *= 1.0 + st_rng_.uniform(0.0, 0.25);
  st_timer_armed_ = true;
  st_timer_ = net_->schedule(id_, deadline, [this]() {
    st_timer_armed_ = false;
    on_state_transfer_deadline();
  });
}

void MinBftReplica::disarm_state_transfer_timer() {
  if (!st_timer_armed_) return;
  st_timer_armed_ = false;
  net_->cancel(st_timer_);
}

void MinBftReplica::on_state_transfer_deadline() {
  if (!st_active_) return;
  // Head matching stalled for a whole attempt window.  Before burning a
  // retry (or the cycle), fall back to the best certificate-vouched anchor:
  // it only reaches the checkpoint boundary, not the live head, but under
  // continuous commits the next checkpoint quorum restarts the cycle and
  // each round closes the remaining gap.
  if (try_install_anchor()) return;
  if (st_attempt_ >= config_.state_transfer_max_attempts) {
    // Give up the cycle rather than retry forever: the next checkpoint
    // quorum we observe while still behind restarts it (garbage_collect),
    // so a partitioned replica re-engages once the network heals.
    ++st_giveups_;
    finish_state_transfer(/*installed=*/false);
    return;
  }
  send_state_request();
}

bool MinBftReplica::try_install_anchor() {
  if (!st_anchor_.has_value()) return false;
  const StateResponse cand = std::move(*st_anchor_);
  st_anchor_.reset();
  if (cand.anchor_seq > last_executed_ &&
      cand.prefix_ops <= service_.log().size() &&
      install_transferred_state(
          cand.prefix_ops, cand.log,
          static_cast<std::size_t>(cand.anchor_ops - cand.prefix_ops),
          cand.anchor_digest, cand.anchor_seq, cand.anchor_cert)) {
    // The anchor only reaches the checkpoint boundary; the responder's
    // head was visibly further (its response had to beat our executed
    // count to be accepted at all).  Chase it now instead of waiting for
    // the next checkpoint quorum — each round either head-matches or
    // installs the next stabilized boundary.
    if (cand.last_executed > last_executed_) request_state_transfer();
    return true;
  }
  return false;
}

void MinBftReplica::finish_state_transfer(bool installed) {
  st_active_ = false;
  st_attempt_ = 0;
  disarm_state_transfer_timer();
  // Prune ALL cycle bookkeeping: votes and stored responses for losing or
  // stale digests must not accumulate across cycles (a slow or equivocating
  // responder could otherwise grow these maps without bound).
  state_votes_.clear();
  pending_state_.clear();
  st_anchor_.reset();
  if (installed) ++st_completions_;
  publish_progress();
}

void MinBftReplica::discard_state_candidate(const crypto::Digest& digest) {
  pending_state_.erase(digest);
  state_votes_.erase(digest);
}

void MinBftReplica::publish_progress() {
  progress_.committed_ops.store(service_.log().size(),
                                std::memory_order_relaxed);
  progress_.view.store(view_, std::memory_order_relaxed);
  progress_.st_attempts.store(st_attempts_, std::memory_order_relaxed);
  progress_.st_completions.store(st_completions_, std::memory_order_relaxed);
  progress_.st_giveups.store(st_giveups_, std::memory_order_relaxed);
}

void MinBftReplica::handle_state_request(net::NodeId from,
                                         const StateRequest& r) {
  StateResponse resp;
  resp.replica = id_;
  resp.last_executed = last_executed_;
  // Ship only the suffix above the requester's own committed prefix: a
  // lagging (but not amnesiac) replica must not be mailed history it already
  // holds — full-log responses on a long-lived cluster would churn the
  // drop-oldest inboxes the recovery itself depends on.
  const std::vector<std::string>& ops = service_.log();
  const std::size_t prefix = static_cast<std::size_t>(
      std::min<std::uint64_t>(r.ops_executed, ops.size()));
  resp.prefix_ops = prefix;
  resp.log.assign(ops.begin() + static_cast<std::ptrdiff_t>(prefix),
                  ops.end());
  resp.state_digest = service_.state_digest();
  // Vouch for the stable checkpoint too, when we hold both its committed
  // slice and the f+1 certificate that stabilized it.  The head digest
  // above needs f+1 byte-identical responses; under continuous commits no
  // two responders sit at the same head, so the self-certifying anchor is
  // what lets the requester recover off a single response (the deadline
  // path in on_state_transfer_deadline).
  const auto anchor = checkpoint_anchors_.find(stable_checkpoint_);
  if (stable_checkpoint_ > 0 && anchor != checkpoint_anchors_.end() &&
      !stable_cert_.empty() &&
      stable_cert_.front().last_executed == stable_checkpoint_ &&
      anchor->second.first >= prefix) {
    resp.anchor_seq = stable_checkpoint_;
    resp.anchor_ops = anchor->second.first;
    resp.anchor_digest = anchor->second.second;
    resp.anchor_cert = stable_cert_;
  }
  net_->consume_cpu(id_, config_.crypto_cost_sign);
  resp.signature = signer_.sign(resp.payload());
  net_->send(id_, from, MinBftMsg{resp});
}

void MinBftReplica::handle_state_response(const StateResponse& r) {
  // Only the cycle that solicited responses accepts them: unsolicited or
  // post-install stragglers must not accumulate votes (or trigger installs
  // nobody asked for).
  if (!st_active_) return;
  if (r.last_executed <= last_executed_) return;
  // A suffix above a prefix we do not hold cannot be spliced.  An honest
  // responder never sends one — prefix_ops is clamped to OUR reported
  // committed count, which only grows.
  if (r.prefix_ops > service_.log().size()) return;
  // f+1 matching digests are only meaningful if each vote really comes from
  // the member it names.
  if (!is_member(r.replica) || r.signature.signer != r.replica) return;
  net_->consume_cpu(id_, config_.crypto_cost_verify);
  if (!registry_->verify(r.payload(), r.signature)) return;
  // Stash the best certificate-vouched anchor as the deadline fallback
  // (one candidate, overwritten by a higher boundary: bounded by design).
  if (anchor_certified(r) &&
      (!st_anchor_.has_value() || r.anchor_seq > st_anchor_->anchor_seq)) {
    st_anchor_ = r;
  }
  // The first attempt window belongs to head matching (two lockstep
  // responders recover us to the live head in one shot).  Once a full
  // window has passed without a match, waiting out each backed-off
  // deadline just lets the cluster race further ahead — install the
  // certified boundary the moment we hold it and chase from there.
  if (st_attempt_ >= 2 && try_install_anchor()) return;
  // One live vote per member: a replica's newest response supersedes any
  // earlier one, so the vote and response maps stay bounded by the
  // membership size no matter how often a responder re-answers (retries
  // solicit duplicates by design) or equivocates.
  for (auto vit = state_votes_.begin(); vit != state_votes_.end();) {
    vit->second.erase(r.replica);
    if (vit->second.empty()) {
      pending_state_.erase(vit->first);
      vit = state_votes_.erase(vit);
    } else {
      ++vit;
    }
  }
  // The state is installed once f+1 replicas vouch for the same digest
  // (§VII-C: "its state is initialized with the (identical) state from f+1
  // other replicas").
  state_votes_[r.state_digest].insert(r.replica);
  if (static_cast<int>(state_votes_[r.state_digest].size()) <
      config_.f + 1) {
    pending_state_[r.state_digest] = r;
    return;
  }
  const auto it = pending_state_.find(r.state_digest);
  const StateResponse& adopt = it != pending_state_.end() ? it->second : r;
  if (adopt.prefix_ops > service_.log().size() ||
      !install_transferred_state(adopt.prefix_ops, adopt.log,
                                 adopt.log.size(), adopt.state_digest,
                                 adopt.last_executed, /*cert=*/{})) {
    discard_state_candidate(r.state_digest);
  }
}

bool MinBftReplica::anchor_certified(const StateResponse& r) {
  if (r.anchor_seq == 0 || r.anchor_cert.empty()) return false;
  if (r.anchor_seq <= last_executed_) return false;
  // The anchored slice must be reconstructible from this very response:
  // our first prefix_ops committed operations plus the shipped operations
  // up to the boundary's count.
  if (r.anchor_ops < r.prefix_ops || r.prefix_ops > service_.log().size())
    return false;
  if (r.anchor_ops - r.prefix_ops > r.log.size()) return false;
  // Same rule as certified_stable: f+1 distinct current members' valid
  // USIG-certified CHECKPOINTs for exactly (anchor_seq, anchor_digest).
  std::set<ReplicaId> voters;
  for (const Checkpoint& c : r.anchor_cert) {
    if (c.last_executed != r.anchor_seq) continue;
    if (!crypto::digest_equal(c.state_digest, r.anchor_digest)) continue;
    if (!is_member(c.replica) || c.replica != c.ui.replica) continue;
    if (!verify_ui(c.body_digest(), c.ui)) continue;
    voters.insert(c.replica);
  }
  return static_cast<int>(voters.size()) >= config_.f + 1;
}

bool MinBftReplica::install_transferred_state(
    std::uint64_t prefix_ops, const std::vector<std::string>& shipped,
    std::size_t count, const crypto::Digest& digest, SeqNum seq,
    std::vector<Checkpoint> cert) {
  // Splice our own committed prefix under the shipped operations, then
  // verify the chain of the WHOLE log against the vouched digest.  The
  // quorum (digest votes or checkpoint certificate) vouches for the digest,
  // not for whichever operations happened to arrive with it: recomputing
  // the chain means a single Byzantine responder cannot smuggle fabricated
  // operations (e.g. forged join:/evict: entries) under an honest digest —
  // and the splice extends that guarantee to truncated responses (a wrong
  // prefix claim simply fails the chain).
  if (count > shipped.size()) return false;
  std::vector<std::string> full;
  full.reserve(static_cast<std::size_t>(prefix_ops) + count);
  full.assign(service_.log().begin(),
              service_.log().begin() + static_cast<std::ptrdiff_t>(prefix_ops));
  full.insert(full.end(), shipped.begin(),
              shipped.begin() + static_cast<std::ptrdiff_t>(count));
  if (!crypto::digest_equal(ReplicatedService::chain_digest(full), digest)) {
    return false;
  }
  service_.install(std::move(full), digest);
  last_executed_ = seq;
  checkpoint_anchors_.clear();
  // A checkpoint-anchored install lands exactly on a stable boundary and
  // carries the certificate that stabilized it, so our view-change claims
  // stay certified; a head install's stable point is vouched by the
  // state-digest quorum instead, and our claims go uncertified until the
  // next checkpoint (peers ignore them, which is safe — our log above the
  // transfer is empty anyway).  A cert for a boundary older than the stable
  // seq we already learned from a checkpoint quorum must not be adopted: it
  // would mislabel the newer stable point.
  if (seq > stable_checkpoint_) {
    stable_checkpoint_ = seq;
    stable_cert_ = std::move(cert);
  } else if (seq == stable_checkpoint_ && !cert.empty()) {
    stable_cert_ = std::move(cert);
  }
  if (!stable_cert_.empty() && stable_checkpoint_ == seq) {
    checkpoint_anchors_[seq] = {service_.log().size(), digest};
  }
  for (const std::string& op : service_.log()) apply_reconfiguration(op);
  // Erase only the bookkeeping the install supersedes.  Entries ABOVE the
  // installed point are kept: they hold prepares we already verified and
  // commit votes we and our peers already cast, and wiping them here is
  // what used to wedge clusters — two followers installing a boundary
  // would both forget the suffix the leader had committed with their
  // pre-install votes, leaving nobody able to repair it.
  log_.erase(log_.begin(), log_.upper_bound(seq));
  early_commits_.erase(early_commits_.begin(),
                       early_commits_.upper_bound(seq));
  fetched_.erase(fetched_.begin(), fetched_.upper_bound(seq));
  resync_assignment_watermark();
  if (recovering_) {
    // First install after a recovery restart ends the passive phase: we
    // now stand on a vouched committed prefix and may vote again.  But the
    // votes we cast BEFORE crashing are forgotten forever, so quarantine
    // our view-change participation until the stable checkpoint covers
    // everything we could have voted on (any such vote was bounded by our
    // then-stable + log_watermark <= seq + log_watermark).  Agreement
    // voting resumes immediately — only the amnesiac prepared-set proof is
    // dangerous.  Live (non-restart) installs keep their suffix above and
    // need no quarantine.
    recovering_ = false;
    vc_quarantine_until_ =
        std::max(vc_quarantine_until_, seq + config_.log_watermark);
  }
  finish_state_transfer(/*installed=*/true);
  // Anything the kept suffix already quorate can execute right away on top
  // of the installed state.
  try_execute();
  return true;
}

}  // namespace tolerance::consensus
