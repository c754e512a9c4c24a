#pragma once
// Open Jackson queueing networks (paper §2.2).
//
// "The objective of any analysis technique is the computation of the
//  stationary probability distribution for a distributed system consisting
//  of several processes that operate and interact concurrently." [7]
//
// A Jackson network is the canonical tractable instance: M stations with
// exponential service, external Poisson arrivals, and probabilistic routing.
// The product-form result reduces the network to per-station M/M/1 queues at
// the effective arrival rates solved from the traffic equations — the
// "several communicating processes" case the producer-consumer chain cannot
// express.

#include <cstddef>
#include <vector>

#include "markov/queueing.hpp"

namespace holms::markov {

/// One service station of the network.
struct JacksonStation {
  double service_rate = 1.0;       // mu (jobs/s)
  double external_arrivals = 0.0;  // lambda_0 (jobs/s from outside)
};

/// Network-level solution.
struct JacksonSolution {
  std::vector<double> effective_arrival_rate;  // lambda_i from traffic eqs
  std::vector<QueueMetrics> station;           // per-station M/M/1 metrics
  double total_jobs = 0.0;                     // sum of L_i
  double mean_sojourn_time = 0.0;              // Little: N / sum(lambda_0)
  double throughput = 0.0;                     // total external arrival rate
  bool stable = true;                          // every rho_i < 1
};

/// An open Jackson network: stations plus a routing matrix.  routing[i][j]
/// is the probability a job leaving i goes to j; the remainder
/// (1 - sum_j routing[i][j]) leaves the network.
class JacksonNetwork {
 public:
  explicit JacksonNetwork(std::vector<JacksonStation> stations);

  std::size_t size() const { return stations_.size(); }

  /// Sets the routing probability from station i to station j.
  void set_routing(std::size_t from, std::size_t to, double prob);
  double routing(std::size_t from, std::size_t to) const;

  /// Solves the traffic equations lambda (I - R) = lambda0 exactly (one
  /// GthFactors left solve, each station's leave probability as its exit)
  /// and the per-station product-form metrics.  A station no flow reaches
  /// gets lambda = 0.  Throws on invalid routing (row sums above 1) or flow
  /// into a closed cycle (jobs trapped forever).
  JacksonSolution solve() const;

 private:
  std::vector<JacksonStation> stations_;
  std::vector<double> routing_;  // row-major size() x size()
};

/// Convenience: a tandem line of stations (stream pipeline), jobs enter at
/// the first station and traverse every station in order.
JacksonNetwork tandem_network(const std::vector<double>& service_rates,
                              double arrival_rate);

}  // namespace holms::markov
