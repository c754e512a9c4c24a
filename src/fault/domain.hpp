#pragma once
// Failure-domain trees: the shared-hardware topology behind correlated
// faults.
//
// Real fleets never fail i.i.d.: a rack PDU trip takes every enclosure
// behind it down at once, an enclosure backplane fault kills its nodes, a
// cable bundle cut severs a whole row of links.  A FailureDomainTree
// captures that sharing as an arbitrary-fan-out tree (rack -> enclosure ->
// node -> link, or any other nesting the consumer's platform implies), with
// each concrete fault target — a (Target, id) pair in the consumer's id
// namespace — mapped to exactly one domain.  FaultSchedule::bursts() then
// draws *domain-level* events and expands each one into per-target fail
// events over the whole subtree, which is how one physical cause becomes a
// correlated burst.
//
// The tree is build-then-read: domains and target mappings are appended,
// queries never mutate.  All query orders are canonical (preorder for
// domains, (target, id) for targets), so generators driven by the tree are
// deterministic functions of (seed, tree, spec) and the tree itself has a
// stable fingerprint().

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/schedule.hpp"

namespace holms::fault {

/// One concrete fault target addressed by a domain subtree.
struct TargetRef {
  Target target = Target::kLink;
  std::size_t id = 0;
};

class FailureDomainTree {
 public:
  /// Creates the tree with its root domain (id 0).
  explicit FailureDomainTree(std::string root_name = "root");

  static constexpr std::size_t kRoot = 0;

  /// Appends a child domain under `parent`; returns the new domain id.
  /// Ids are dense and assigned in insertion order; out-of-range parents
  /// throw holms::InvalidArgument.
  std::size_t add_domain(std::size_t parent, std::string name);

  /// Maps a concrete target to a domain (typically a leaf, but any domain
  /// is legal — a switch domain can own its uplink directly).  Mapping the
  /// same (target, id) twice throws holms::InvalidArgument.  O(1) when
  /// (target, id) exceeds every mapped one, as when ids are mapped in
  /// ascending order; O(targets) otherwise.
  void map_target(Target target, std::size_t id, std::size_t domain);

  std::size_t num_domains() const { return parent_.size(); }
  std::size_t num_targets() const { return target_domain_.size(); }
  const std::string& name(std::size_t domain) const;
  std::size_t parent(std::size_t domain) const;
  const std::vector<std::size_t>& children(std::size_t domain) const;

  /// True when `ancestor` is `domain` or lies on its parent chain.
  bool is_ancestor(std::size_t ancestor, std::size_t domain) const;

  /// Every target mapped at or below `domain`, in canonical (target, id)
  /// order — the expansion order burst generators walk.  Costs the
  /// subtree's domains and targets, not the tree's.
  std::vector<TargetRef> targets_under(std::size_t domain) const;

  /// Number of targets at or below `domain` — the repair-crew priority of a
  /// burst originating there (bigger blast radius is repaired first).
  std::size_t subtree_targets(std::size_t domain) const;

  /// Structure + mapping digest: two trees with equal fingerprints expand
  /// bursts identically.
  std::uint64_t fingerprint() const;

 private:
  void check_domain(std::size_t domain, const char* what) const;
  // Calls f(d) for every domain at or below `domain`, in preorder.
  template <typename F>
  void for_subtree(std::size_t domain, F&& f) const;

  std::vector<std::size_t> parent_;                 // parent_[0] == 0
  std::vector<std::string> name_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<TargetRef> target_ref_;               // insertion order
  std::vector<std::size_t> target_domain_;          // parallel to target_ref_
  std::vector<std::vector<std::size_t>> mapped_;    // per domain: its indices
                                                    // into target_ref_
  std::vector<TargetRef> sorted_;  // every mapped target, (target, id) order
};

}  // namespace holms::fault
