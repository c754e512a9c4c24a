#pragma once
// Bit-for-bit pins of every noc::NocStats field, shared by the NoC and
// fault-injection tests.  Pins are written in hex-float so a change to any
// arbitration decision, RNG draw or accumulation order shows as a mismatch.

#include <gtest/gtest.h>

#include <cstdint>

#include "noc/router.hpp"

namespace holms::test_support {

// Every NocStats field of one reference run.
struct PinnedNocStats {
  std::uint64_t packets_injected;
  std::uint64_t packets_delivered;
  std::uint64_t flit_hops;
  double mean_packet_latency;
  double p99_packet_latency;
  double mean_buffer_occupancy;
  double accepted_flits_per_cycle;
  double energy_joules;
  double energy_per_bit_pj;
  std::uint64_t packets_dropped;
  double delivery_ratio;
  std::uint64_t reroute_hops;
  std::uint64_t faults_applied;
};

inline void expect_pinned(const noc::NocStats& s, const PinnedNocStats& p) {
  EXPECT_EQ(s.packets_injected, p.packets_injected);
  EXPECT_EQ(s.packets_delivered, p.packets_delivered);
  EXPECT_EQ(s.flit_hops, p.flit_hops);
  EXPECT_EQ(s.mean_packet_latency, p.mean_packet_latency);
  EXPECT_EQ(s.p99_packet_latency, p.p99_packet_latency);
  EXPECT_EQ(s.mean_buffer_occupancy, p.mean_buffer_occupancy);
  EXPECT_EQ(s.accepted_flits_per_cycle, p.accepted_flits_per_cycle);
  EXPECT_EQ(s.energy_joules, p.energy_joules);
  EXPECT_EQ(s.energy_per_bit_pj, p.energy_per_bit_pj);
  EXPECT_EQ(s.packets_dropped, p.packets_dropped);
  EXPECT_EQ(s.delivery_ratio, p.delivery_ratio);
  EXPECT_EQ(s.reroute_hops, p.reroute_hops);
  EXPECT_EQ(s.faults_applied, p.faults_applied);
}

}  // namespace holms::test_support
