// Client-facing admission control at the service boundary — the third, fast
// feedback loop next to the paper's two-level recovery/eviction control.
//
// Each replica runs one AdmissionController.  Every control step it folds a
// normalized pressure sample
//
//     P = W_Q * queue*  +  W_L * lat*  +  W_E * err*
//
// (queue depth, oldest-request wait, and retry/error fraction, each clipped
// to [0, 1]) through a fast-attack / slow-release filter — an EWMA on the
// way up, a wall-clock exponential decay on the way down — and drives an
// explicit mode machine
//
//     NORMAL  ->  SOFT  ->  HARD
//
// with hysteresis bands: a mode is entered when the filtered pressure crosses
// the *enter* threshold and left only when it falls below the lower *exit*
// threshold, so a retry storm oscillating around a single threshold cannot
// flap the valve.  SOFT and HARD carry token budgets (deterministic
// elapsed-time refill); NORMAL admits everything.  Rejected requests are
// answered with a typed Overloaded reply carrying a retry-after hint which
// MinBftClient honors with jittered exponential backoff.
//
// The controller is pure and deterministic: it is fed the transport clock
// (simulated or wall), never reads one itself, so both execution lanes stay
// log-comparable and the sim-lane golden traces remain reproducible.
#pragma once

#include <algorithm>
#include <cstdint>

namespace tolerance::consensus {

enum class AdmissionMode : std::uint8_t {
  kNormal = 0,
  kSoft = 1,
  kHard = 2,
};

const char* to_string(AdmissionMode mode);

struct AdmissionConfig {
  /// Master switch.  Off by default: the valve must not perturb existing
  /// golden traces or benches unless a scenario asks for it.
  bool enabled = false;

  /// Release time constant (seconds) when pressure is FALLING.  Release is
  /// on the clock, not per-observation: under a sustained storm the inbound
  /// queue oscillates between full and drained as the replica alternates
  /// serving and catching up, and a per-observation filter would track that
  /// oscillation — reopening the valve each trough, admitting a fresh burst,
  /// and re-saturating the replica (a limit cycle).  Decaying toward the raw
  /// sample with a wall-clock time constant holds the peak across troughs;
  /// the valve reopens only after pressure has genuinely been low for ~tau.
  double release_tau = 1.0;

  // --- normalizers ---------------------------------------------------------
  /// Queue depth at which queue* saturates to 1.0 (pending requests plus
  /// unexecuted log entries plus the transport inbound queue).
  double queue_capacity = 64.0;
  /// Oldest-pending wait (seconds) at which lat* saturates to 1.0.
  double latency_ref = 2.0;

  // --- hysteresis bands on the filtered pressure ---------------------------
  double soft_enter = 0.55;  ///< NORMAL -> SOFT when P_ewma >= soft_enter
  double soft_exit = 0.35;   ///< SOFT -> NORMAL when P_ewma < soft_exit
  double hard_enter = 0.85;  ///< SOFT/NORMAL -> HARD when P_ewma >= hard_enter
  double hard_exit = 0.60;   ///< HARD -> SOFT when P_ewma < hard_exit

  // --- per-mode token budgets (tokens/sec, burst cap) ----------------------
  /// NORMAL has no budget.  SOFT sheds the excess of a spike; HARD keeps a
  /// trickle alive so probes and the control plane still get through.
  double soft_rate = 50.0;
  double soft_burst = 16.0;
  double hard_rate = 5.0;
  double hard_burst = 2.0;

  // --- retry-after hints sent with the Overloaded reply --------------------
  std::uint64_t retry_after_soft_ms = 250;
  std::uint64_t retry_after_hard_ms = 1000;
};

/// EWMA pressure filter + hysteresis mode machine + per-mode token buckets.
/// Single-threaded by design: it lives inside a replica, which is already
/// serialized by its event loop in both transport lanes.
class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionConfig& config);

  /// Record an arriving request before the admission decision.  `retry` marks
  /// a request recognized as a client retransmission (already pending or
  /// in-flight); the retry fraction of each sampling window feeds err*.
  void observe_request(bool retry);

  /// Fold one pressure sample at time `now`: normalize the inputs, advance
  /// the EWMA, and step the mode machine (at most one mode level per update,
  /// so recovery from HARD passes through SOFT).
  void update(double now, double queue_depth, double oldest_wait_seconds);

  /// Admission decision for one request at time `now`.  NORMAL always
  /// admits; SOFT/HARD admit while the mode's token bucket (refilled
  /// deterministically from elapsed time) has a whole token left.
  bool try_admit(double now);

  AdmissionMode mode() const { return mode_; }
  double pressure() const { return pressure_; }
  /// Retry-after hint (ms) matching the current mode; 0 in NORMAL.
  std::uint64_t retry_after_ms() const;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t mode_changes() const { return mode_changes_; }

  const AdmissionConfig& config() const { return config_; }

 private:
  void enter(AdmissionMode next, double now);
  void refill(double now);
  double rate() const;
  double burst() const;

  AdmissionConfig config_{};
  AdmissionMode mode_ = AdmissionMode::kNormal;
  double pressure_ = 0.0;
  bool seeded_ = false;       ///< first sample initializes the filter outright
  double last_update_ = 0.0;  ///< clock of the previous sample (release dt)

  // Token bucket for the current (SOFT/HARD) mode.
  double tokens_ = 0.0;
  double last_refill_ = 0.0;

  // Per-window retry accounting for err*.
  std::uint64_t window_requests_ = 0;
  std::uint64_t window_retries_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t mode_changes_ = 0;
};

}  // namespace tolerance::consensus
