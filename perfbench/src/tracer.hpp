// In-memory span recorder for the traced runs.
//
// A span covers one call from the benchmark's files into a layer (a replica
// or client handler, a transport send).  Spans nest on the thread that
// opens them; a span's self time is its duration minus the durations of the
// spans it encloses, so the layers' self times add up without double
// counting.  Every span feeds per-thread aggregates (single writer, read
// with relaxed loads, so a snapshot may be taken while traffic flows); a
// sample of spans — those whose key's second component is a multiple of
// kSampleEvery — is also kept whole and written out at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kReplicaRequest,
  kReplicaPrepare,
  kReplicaCommit,
  kReplicaCheckpoint,
  kReplicaOther,
  kClientSubmit,
  kClientReply,
  kNetSend,
  kTraceCost,  ///< the tracer's own sizing and sampling work
  kCount,
};
inline constexpr int kLayers = static_cast<int>(Layer::kCount);
const char* layer_name(Layer layer);

/// What a span serves: (client, request id) or (view, seq).
struct SpanKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Message kinds counted at the transport: request, prepare, commit,
/// reply, checkpoint, and everything else.
inline constexpr int kMsgKinds = 6;

class Tracer {
 public:
  struct Totals {
    std::array<std::int64_t, kLayers> self_ns{};
    std::array<std::uint64_t, kMsgKinds> msgs{};
    std::uint64_t bytes = 0;
    std::int64_t hmac_ns = 0;
    std::uint64_t hmac_bytes = 0;

    Totals operator-(const Totals& base) const;
    std::int64_t self_ns_of(Layer l) const {
      return self_ns[static_cast<std::size_t>(l)];
    }
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& tracer, Layer layer, SpanKey key);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
  };

  /// One message of `kind` and `bytes` encoded bytes sent to `copies`
  /// recipients.
  void count_message(int kind, std::size_t bytes, std::size_t copies);
  /// One timed HMAC-SHA256 over `bytes` bytes.
  void add_hmac_sample(std::int64_t ns, std::size_t bytes);

  /// Sum of every thread's aggregates so far.
  Totals totals() const;

  /// Write the sampled spans as JSON lines; call once no thread records.
  /// Returns the number of spans written.
  std::size_t write_spans(const std::string& path) const;

 private:
  struct Frame {
    Layer layer = Layer::kReplicaOther;
    SpanKey key;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  struct Sample {
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::int64_t self_ns = 0;
    Layer layer = Layer::kReplicaOther;
    Layer parent = Layer::kCount;  ///< kCount: no enclosing span
    SpanKey key;
  };
  /// One thread's state.  Aggregates are written only by the owning thread
  /// (load + store, no read-modify-write) and read by snapshots.
  struct Local {
    std::array<std::atomic<std::int64_t>, kLayers> self_ns{};
    std::array<std::atomic<std::uint64_t>, kMsgKinds> msgs{};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::int64_t> hmac_ns{0};
    std::atomic<std::uint64_t> hmac_bytes{0};
    std::array<Frame, 16> stack{};
    int depth = 0;
    std::vector<Sample> samples;
    int thread = 0;
  };

  static constexpr std::uint64_t kSampleEvery = 64;
  static constexpr std::size_t kMaxSamplesPerThread = 50'000;

  Local& local();
  void open(Layer layer, SpanKey key);
  void close();

  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Local>> locals_;
};

}  // namespace perfbench
