// A/B double-buffered publication channel for level-2 policy tables.
//
// The asynchronous controller (core/async_controller.hpp) re-solves the
// replication CMDP in the background and must hand the resulting policy to
// the decision path without ever exposing a half-updated table: the decision
// path runs every control cycle and must not take a lock a slow solver could
// be holding.  PolicyBuffer keeps two table slots; a single writer fills the
// inactive slot, waits for stragglers to drain off it, and flips the active
// index with one sequentially consistent store (the "atomic epoch flip").
// Readers are wait-free with respect to the writer: they pin a slot with a
// per-slot reader count, re-check the active index, and copy — the writer
// never mutates a slot a reader holds pinned, so every snapshot is
// internally consistent and epochs observed by any reader are monotone.
// The flip and the straggler check on the writer side, and the pin and the
// re-check on the reader side, form a Dekker handshake, which is why those
// four operations are seq_cst rather than release/acquire.
//
// Single-writer by contract (the async controller serializes publishes
// through one completion path); any number of concurrent readers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace tolerance::core {

class PolicyBuffer {
 public:
  /// The decision-path view of one published CMDP solution: the pi(1|s)
  /// table plus the Thm. 2 threshold decomposition the FALLBACK rung of the
  /// staleness ladder degrades to.  Deliberately trimmed — no occupancy
  /// measure, no simplex basis — so snapshots are cheap to copy.
  struct Table {
    std::uint64_t epoch = 0;  ///< 0 = nothing published yet
    std::vector<double> add_probability;
    int beta1 = -1;
    int beta2 = -1;
    double kappa = 1.0;
    double average_cost = 0.0;
  };

  PolicyBuffer() = default;
  PolicyBuffer(const PolicyBuffer&) = delete;
  PolicyBuffer& operator=(const PolicyBuffer&) = delete;

  /// Publish a new table (single writer).  `table.epoch` must be strictly
  /// greater than the currently published epoch; the call spins briefly if
  /// a reader still pins the back slot (readers only hold a slot for the
  /// duration of one copy), then flips the active index atomically.
  void publish(Table table);

  /// Wait-free consistent copy of the currently published table.  Never
  /// observes a half-updated table and never blocks on the writer; epochs
  /// observed by one thread are monotone non-decreasing.
  Table snapshot() const;

  /// Currently published epoch (0 until the first publish) — the cheap
  /// staleness probe, one relaxed-ish atomic load.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  mutable std::array<std::atomic<int>, 2> readers_{};
  std::atomic<int> active_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::array<Table, 2> slots_;
};

}  // namespace tolerance::core
