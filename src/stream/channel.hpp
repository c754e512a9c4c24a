#pragma once
// The Channel automaton of the generic multimedia stream (paper Fig.1(a)).
//
// "the real channel can be modelled as an automaton which simply transmits
//  packets from the transmitter (Tx) to the receiver (Rx) buffers.  The
//  packets may be sent over the channel with error, or may be simply lost."
//
// Two error models are provided: the memoryless binary-symmetric abstraction
// (per-packet error probability) and the Gilbert–Elliott two-state burst
// model, which is the standard wireless abstraction used throughout §4.

#include <cstddef>
#include <cstdint>

#include "sim/random.hpp"
#include "exec/error.hpp"

namespace holms::stream {

/// A media packet travelling Source -> Channel -> Sink.
struct Packet {
  std::uint64_t id = 0;
  double size_bits = 0.0;
  double created_at = 0.0;   // time the source emitted it
  std::uint32_t retransmissions = 0;
  bool corrupted = false;
};

/// Per-packet error process.
class ErrorModel {
 public:
  virtual ~ErrorModel() = default;
  /// Returns true if a packet transmitted at time `now` is corrupted/lost.
  virtual bool corrupts(double now) = 0;
  /// Long-run packet error probability.
  virtual double mean_error_rate() const = 0;
};

/// Independent (memoryless) packet errors with fixed probability.
class IidErrorModel final : public ErrorModel {
 public:
  IidErrorModel(double per, sim::Rng rng);
  bool corrupts(double now) override;
  double mean_error_rate() const override { return per_; }

 private:
  double per_;
  sim::Rng rng_;
};

/// Gilbert–Elliott burst-error channel: Good/Bad states with exponential
/// sojourns and per-state packet error probabilities.
class GilbertElliottModel final : public ErrorModel {
 public:
  struct Params {
    double per_good = 0.001;   // packet error prob in Good
    double per_bad = 0.3;      // packet error prob in Bad
    double rate_g2b = 0.1;     // Good -> Bad transitions per unit time
    double rate_b2g = 1.0;     // Bad -> Good transitions per unit time

    /// Contract rule C001; called by the model constructor.
    void validate() const {
      if (!(per_good >= 0.0 && per_good <= 1.0) ||
          !(per_bad >= 0.0 && per_bad <= 1.0) || !(rate_g2b > 0.0) ||
          !(rate_b2g > 0.0)) {
        throw holms::InvalidArgument("GilbertElliottModel: invalid params");
      }
    }
  };
  GilbertElliottModel(const Params& p, sim::Rng rng);

  bool corrupts(double now) override;
  double mean_error_rate() const override;

 private:
  void advance_to(double now);

  Params p_;
  bool bad_ = false;
  double state_until_ = 0.0;
  double last_now_ = 0.0;
  sim::Rng rng_;
};

/// Transmission-time model of the physical link.
struct LinkRate {
  double bits_per_second = 1e6;
  double propagation_delay = 1e-3;

  double transmission_time(double size_bits) const {
    return size_bits / bits_per_second + propagation_delay;
  }
};

}  // namespace holms::stream
