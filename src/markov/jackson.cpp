#include "markov/jackson.hpp"

#include <algorithm>

#include "exec/error.hpp"
#include "markov/chain.hpp"

namespace holms::markov {

JacksonNetwork::JacksonNetwork(std::vector<JacksonStation> stations)
    : stations_(std::move(stations)),
      routing_(stations_.size() * stations_.size(), 0.0) {
  if (stations_.empty()) {
    throw holms::InvalidArgument("JacksonNetwork: need >= 1 station");
  }
  for (const auto& s : stations_) {
    if (!(s.service_rate > 0.0) || s.external_arrivals < 0.0) {
      throw holms::InvalidArgument("JacksonNetwork: invalid station");
    }
  }
}

void JacksonNetwork::set_routing(std::size_t from, std::size_t to,
                                 double prob) {
  if (from >= size() || to >= size() || !(prob >= 0.0 && prob <= 1.0)) {
    throw holms::InvalidArgument("JacksonNetwork::set_routing: bad args");
  }
  routing_[from * size() + to] = prob;
}

double JacksonNetwork::routing(std::size_t from, std::size_t to) const {
  return routing_[from * size() + to];
}

JacksonSolution JacksonNetwork::solve() const {
  const std::size_t n = size();
  // Traffic equations lambda (I - R) = lambda0: R's off-diagonal entries
  // are the chain, and the probability of leaving the network is the exit.
  std::vector<SparseRow> rows(n);
  std::vector<double> leave(n);
  std::vector<double> lambda0(n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double r = routing_[i * n + j];
      row += r;
      if (j != i && r > 0.0) rows[i].push_back(RowEntry{j, r});
    }
    if (row > 1.0 + 1e-12) {
      throw holms::InvalidArgument(
          "JacksonNetwork: routing row exceeds probability 1");
    }
    leave[i] = std::max(0.0, 1.0 - row);
    lambda0[i] = stations_[i].external_arrivals;
  }
  JacksonSolution sol;
  const std::vector<double> lambda =
      GthFactors(rows, std::move(leave)).solve_left(std::move(lambda0));
  sol.effective_arrival_rate = lambda;

  double external = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // HOLMS_LINT_ALLOW(D006): external-arrival sum over stations in index order; cold
    external += stations_[i].external_arrivals;
    if (lambda[i] >= stations_[i].service_rate) {
      sol.stable = false;
      sol.station.push_back(QueueMetrics{});
      continue;
    }
    QueueMetrics m = lambda[i] > 0.0
                         ? mm1(lambda[i], stations_[i].service_rate)
                         : QueueMetrics{};
    sol.total_jobs += m.mean_queue_length;
    sol.station.push_back(m);
  }
  sol.throughput = external;
  sol.mean_sojourn_time =
      sol.stable && external > 0.0 ? sol.total_jobs / external : 0.0;
  return sol;
}

JacksonNetwork tandem_network(const std::vector<double>& service_rates,
                              double arrival_rate) {
  std::vector<JacksonStation> stations;
  stations.reserve(service_rates.size());
  for (std::size_t i = 0; i < service_rates.size(); ++i) {
    JacksonStation s;
    s.service_rate = service_rates[i];
    s.external_arrivals = i == 0 ? arrival_rate : 0.0;
    stations.push_back(s);
  }
  JacksonNetwork net(std::move(stations));
  for (std::size_t i = 0; i + 1 < service_rates.size(); ++i) {
    net.set_routing(i, i + 1, 1.0);
  }
  return net;
}

}  // namespace holms::markov
