#include "tolerance/consensus/admission.hpp"

#include <cmath>

namespace tolerance::consensus {
namespace {

double clip01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Pressure weights W_Q, W_L, W_E of queue*, lat* and err*.  They sum to 1,
/// so P needs no renormalization.
constexpr double kQueueWeight = 0.5;
constexpr double kLatencyWeight = 0.3;
constexpr double kErrorWeight = 0.2;
/// EWMA weight of the newest sample while pressure is RISING.  Attack is
/// per-observation: a spike must close the valve within a handful of
/// arrivals.
constexpr double kAttackAlpha = 0.3;

}  // namespace

const char* to_string(AdmissionMode mode) {
  switch (mode) {
    case AdmissionMode::kNormal:
      return "normal";
    case AdmissionMode::kSoft:
      return "soft";
    case AdmissionMode::kHard:
      return "hard";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {}

void AdmissionController::observe_request(bool retry) {
  ++window_requests_;
  if (retry) ++window_retries_;
}

void AdmissionController::update(double now, double queue_depth,
                                 double oldest_wait_seconds) {
  const double queue_norm =
      clip01(queue_depth / std::max(config_.queue_capacity, 1.0));
  const double lat_norm =
      clip01(oldest_wait_seconds / std::max(config_.latency_ref, 1e-9));
  const double err_norm =
      window_requests_ == 0
          ? 0.0
          : clip01(static_cast<double>(window_retries_) /
                   static_cast<double>(window_requests_));
  window_requests_ = 0;
  window_retries_ = 0;

  const double raw = clip01(kQueueWeight * queue_norm +
                            kLatencyWeight * lat_norm +
                            kErrorWeight * err_norm);
  if (!seeded_) {
    pressure_ = raw;
    seeded_ = true;
  } else if (raw >= pressure_) {
    // Attack: per-observation EWMA so a spike closes the valve fast.
    pressure_ = kAttackAlpha * raw + (1.0 - kAttackAlpha) * pressure_;
  } else {
    // Release: exponential decay toward the sample on the CLOCK, so the
    // momentary queue troughs of a saturated replica (drain, serve, refill)
    // cannot reopen the valve between bursts.  dt ~ 0 for back-to-back
    // arrivals in one burst, so a burst of low samples decays nothing.
    const double dt = std::max(0.0, now - last_update_);
    const double tau = std::max(config_.release_tau, 1e-9);
    const double k = 1.0 - std::exp(-dt / tau);
    pressure_ += k * (raw - pressure_);
  }
  last_update_ = now;

  // One mode level per update: escalation NORMAL -> HARD is allowed in one
  // step (a 100x spike must clamp immediately) but recovery always steps
  // down through SOFT, so a brief dip below hard_exit cannot reopen the
  // valve all the way at once.
  switch (mode_) {
    case AdmissionMode::kNormal:
      if (pressure_ >= config_.hard_enter) {
        enter(AdmissionMode::kHard, now);
      } else if (pressure_ >= config_.soft_enter) {
        enter(AdmissionMode::kSoft, now);
      }
      break;
    case AdmissionMode::kSoft:
      if (pressure_ >= config_.hard_enter) {
        enter(AdmissionMode::kHard, now);
      } else if (pressure_ < config_.soft_exit) {
        enter(AdmissionMode::kNormal, now);
      }
      break;
    case AdmissionMode::kHard:
      if (pressure_ < config_.hard_exit) {
        enter(AdmissionMode::kSoft, now);
      }
      break;
  }
}

bool AdmissionController::try_admit(double now) {
  if (mode_ == AdmissionMode::kNormal) {
    ++admitted_;
    return true;
  }
  refill(now);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    ++admitted_;
    return true;
  }
  ++rejected_;
  return false;
}

std::uint64_t AdmissionController::retry_after_ms() const {
  switch (mode_) {
    case AdmissionMode::kNormal:
      return 0;
    case AdmissionMode::kSoft:
      return config_.retry_after_soft_ms;
    case AdmissionMode::kHard:
      return config_.retry_after_hard_ms;
  }
  return 0;
}

void AdmissionController::enter(AdmissionMode next, double now) {
  if (next == mode_) return;
  const bool closing = mode_ == AdmissionMode::kNormal;
  mode_ = next;
  ++mode_changes_;
  // Closing the valve (NORMAL -> SOFT/HARD) starts with the full burst so
  // the very request that tripped the threshold is not rejected.  Moving
  // between SOFT and HARD carries the current balance, clamped to the new
  // burst: granting a fresh burst on every transition would let pressure
  // flapping around a band edge mint tokens far beyond either budget's
  // rate — stepping HARD -> SOFT widens the trickle through the higher
  // refill rate alone.
  tokens_ = closing ? burst() : std::min(tokens_, burst());
  last_refill_ = now;
}

void AdmissionController::refill(double now) {
  const double elapsed = now - last_refill_;
  if (elapsed <= 0.0) return;
  tokens_ = std::min(burst(), tokens_ + elapsed * rate());
  last_refill_ = now;
}

double AdmissionController::rate() const {
  return mode_ == AdmissionMode::kHard ? config_.hard_rate
                                       : config_.soft_rate;
}

double AdmissionController::burst() const {
  return mode_ == AdmissionMode::kHard ? config_.hard_burst
                                       : config_.soft_burst;
}

}  // namespace tolerance::consensus
