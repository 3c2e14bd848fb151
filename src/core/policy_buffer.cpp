#include "tolerance/core/policy_buffer.hpp"

#include <thread>

#include "tolerance/util/ensure.hpp"

namespace tolerance::core {

void PolicyBuffer::publish(Table table) {
  TOL_ENSURE(table.epoch > epoch_.load(std::memory_order_acquire),
             "published epochs must be strictly increasing");
  const int back = 1 - active_.load(std::memory_order_acquire);
  // Wait for stragglers: a reader that loaded the old active index but has
  // not yet re-checked it may still pin this slot.  Readers hold a slot only
  // for one table copy, so this spin is bounded and short; the *decision*
  // path never spins (readers never wait for the writer).
  //
  // The flip below and this load form a Dekker handshake with the pin and
  // re-check in snapshot(): the writer stores active_ and later loads
  // readers_, the reader bumps readers_ and then loads active_.
  // Release/acquire would let each store pass the later load, so both sides
  // could read stale values and a reader would copy the slot being
  // rewritten.  seq_cst on all four puts them in one total order: either
  // this load sees the pin or the re-check sees the flip.
  while (readers_[static_cast<std::size_t>(back)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  slots_[static_cast<std::size_t>(back)] = std::move(table);
  const std::uint64_t epoch = slots_[static_cast<std::size_t>(back)].epoch;
  // The flip: readers that see the new index also see the slot contents
  // written above.
  active_.store(back, std::memory_order_seq_cst);
  epoch_.store(epoch, std::memory_order_release);
}

PolicyBuffer::Table PolicyBuffer::snapshot() const {
  for (;;) {
    const int idx = active_.load(std::memory_order_acquire);
    // Pin, then re-check: seq_cst, see publish().
    readers_[static_cast<std::size_t>(idx)].fetch_add(
        1, std::memory_order_seq_cst);
    if (active_.load(std::memory_order_seq_cst) == idx) {
      Table copy = slots_[static_cast<std::size_t>(idx)];
      readers_[static_cast<std::size_t>(idx)].fetch_sub(
          1, std::memory_order_release);
      return copy;
    }
    // Lost the race with a flip between the index load and the pin: the
    // writer may already be rewriting this slot.  Unpin and retry on the
    // new active slot (at most one extra iteration per concurrent flip).
    readers_[static_cast<std::size_t>(idx)].fetch_sub(
        1, std::memory_order_release);
  }
}

}  // namespace tolerance::core
