#include "tracer.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class T>
void bump(std::atomic<T>& slot, T by) {
  // Single writer per slot: a plain load + store is race-free and avoids a
  // locked read-modify-write on the hot path.
  slot.store(slot.load(std::memory_order_relaxed) + by,
             std::memory_order_relaxed);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kReplicaRequest:
      return "replica.request";
    case Layer::kReplicaPrepare:
      return "replica.prepare";
    case Layer::kReplicaCommit:
      return "replica.commit";
    case Layer::kReplicaCheckpoint:
      return "replica.checkpoint";
    case Layer::kReplicaOther:
      return "replica.other";
    case Layer::kClientSubmit:
      return "client.submit";
    case Layer::kClientReply:
      return "client.on_message";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kTraceCost:
      return "trace";
    case Layer::kCount:
      break;
  }
  return "none";
}

Tracer::Totals Tracer::Totals::operator-(const Totals& base) const {
  Totals d = *this;
  for (int i = 0; i < kLayers; ++i) d.self_ns[i] -= base.self_ns[i];
  for (int i = 0; i < kMsgKinds; ++i) d.msgs[i] -= base.msgs[i];
  d.bytes -= base.bytes;
  d.hmac_ns -= base.hmac_ns;
  d.hmac_bytes -= base.hmac_bytes;
  return d;
}

Tracer::Tracer() : generation_(g_generation.fetch_add(1) + 1) {}

Tracer::~Tracer() = default;

Tracer::Local& Tracer::local() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local Local* cached = nullptr;
  if (cached_generation != generation_) {
    auto fresh = std::make_unique<Local>();
    std::lock_guard<std::mutex> lk(mu_);
    fresh->thread = static_cast<int>(locals_.size());
    cached = fresh.get();
    locals_.push_back(std::move(fresh));
    cached_generation = generation_;
  }
  return *cached;
}

void Tracer::open(Layer layer, SpanKey key) {
  Local& l = local();
  if (l.depth >= static_cast<int>(l.stack.size())) {
    ++l.depth;  // too deep to track: not timed
    return;
  }
  l.stack[static_cast<std::size_t>(l.depth++)] = Frame{layer, key, now_ns(), 0};
}

void Tracer::close() {
  Local& l = local();
  if (l.depth > static_cast<int>(l.stack.size())) {
    --l.depth;
    return;
  }
  const Frame f = l.stack[static_cast<std::size_t>(--l.depth)];
  const std::int64_t dur = now_ns() - f.start_ns;
  const std::int64_t self = dur - f.child_ns;
  const auto li = static_cast<std::size_t>(f.layer);
  bump(l.self_ns[li], self);
  Layer parent = Layer::kCount;
  if (l.depth > 0) {
    Frame& up = l.stack[static_cast<std::size_t>(l.depth - 1)];
    up.child_ns += dur;
    parent = up.layer;
  }
  if (f.key.b % kSampleEvery == 0 && l.samples.size() < kMaxSamplesPerThread) {
    l.samples.push_back(Sample{f.start_ns, dur, self, f.layer, parent, f.key});
  }
}

Tracer::Span::Span(Tracer& tracer, Layer layer, SpanKey key)
    : tracer_(tracer) {
  tracer_.open(layer, key);
}

Tracer::Span::~Span() { tracer_.close(); }

void Tracer::count_message(int kind, std::size_t bytes, std::size_t copies) {
  Local& l = local();
  const int k = kind < 0 || kind >= kMsgKinds ? kMsgKinds - 1 : kind;
  bump(l.msgs[static_cast<std::size_t>(k)], static_cast<std::uint64_t>(copies));
  bump(l.bytes, static_cast<std::uint64_t>(bytes * copies));
}

void Tracer::add_hmac_sample(std::int64_t ns, std::size_t bytes) {
  Local& l = local();
  bump(l.hmac_ns, ns);
  bump(l.hmac_bytes, static_cast<std::uint64_t>(bytes));
}

Tracer::Totals Tracer::totals() const {
  Totals t;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& l : locals_) {
    for (int i = 0; i < kLayers; ++i) {
      t.self_ns[i] += l->self_ns[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kMsgKinds; ++i) {
      t.msgs[i] += l->msgs[i].load(std::memory_order_relaxed);
    }
    t.bytes += l->bytes.load(std::memory_order_relaxed);
    t.hmac_ns += l->hmac_ns.load(std::memory_order_relaxed);
    t.hmac_bytes += l->hmac_bytes.load(std::memory_order_relaxed);
  }
  return t;
}

std::size_t Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return 0;
  std::size_t written = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& l : locals_) {
    for (const Sample& s : l->samples) {
      out << "{\"layer\": \"" << layer_name(s.layer) << "\", \"parent\": \""
          << layer_name(s.parent) << "\", \"thread\": " << l->thread
          << ", \"key\": [" << s.key.a << ", " << s.key.b
          << "], \"start_ns\": " << s.start_ns << ", \"dur_ns\": " << s.dur_ns
          << ", \"self_ns\": " << s.self_ns << "}\n";
      ++written;
    }
  }
  return written;
}

}  // namespace perfbench
