#include "fault/domain.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "exec/error.hpp"
#include "exec/rng_stream.hpp"

namespace holms::fault {

FailureDomainTree::FailureDomainTree(std::string root_name) {
  parent_.push_back(0);
  name_.push_back(std::move(root_name));
  children_.emplace_back();
}

std::size_t FailureDomainTree::add_domain(std::size_t parent,
                                          std::string name) {
  check_domain(parent, "add_domain");
  const std::size_t id = parent_.size();
  parent_.push_back(parent);
  name_.push_back(std::move(name));
  children_.emplace_back();
  children_[parent].push_back(id);
  return id;
}

void FailureDomainTree::map_target(Target target, std::size_t id,
                                   std::size_t domain) {
  check_domain(domain, "map_target");
  for (const TargetRef& ref : target_ref_) {
    if (ref.target == target && ref.id == id) {
      throw holms::InvalidArgument(
          "FailureDomainTree::map_target: target already mapped");
    }
  }
  target_ref_.push_back(TargetRef{target, id});
  target_domain_.push_back(domain);
}

const std::string& FailureDomainTree::name(std::size_t domain) const {
  check_domain(domain, "name");
  return name_[domain];
}

std::size_t FailureDomainTree::parent(std::size_t domain) const {
  check_domain(domain, "parent");
  return parent_[domain];
}

const std::vector<std::size_t>& FailureDomainTree::children(
    std::size_t domain) const {
  check_domain(domain, "children");
  return children_[domain];
}

bool FailureDomainTree::is_ancestor(std::size_t ancestor,
                                    std::size_t domain) const {
  check_domain(ancestor, "is_ancestor");
  check_domain(domain, "is_ancestor");
  std::size_t d = domain;
  while (true) {
    if (d == ancestor) return true;
    if (d == kRoot) return false;
    d = parent_[d];
  }
}

std::vector<TargetRef> FailureDomainTree::targets_under(
    std::size_t domain) const {
  check_domain(domain, "targets_under");
  // A domain's id exceeds its parent's (add_domain appends), so one
  // ascending pass from `domain` marks its whole subtree.
  std::vector<bool> under(parent_.size(), false);
  under[domain] = true;
  for (std::size_t d = domain + 1; d < parent_.size(); ++d) {
    under[d] = under[parent_[d]];
  }
  std::vector<TargetRef> out;
  for (std::size_t i = 0; i < target_ref_.size(); ++i) {
    if (under[target_domain_[i]]) out.push_back(target_ref_[i]);
  }
  std::sort(out.begin(), out.end(), [](const TargetRef& a, const TargetRef& b) {
    return std::tie(a.target, a.id) < std::tie(b.target, b.id);
  });
  return out;
}

std::size_t FailureDomainTree::subtree_targets(std::size_t domain) const {
  check_domain(domain, "subtree_targets");
  return targets_under(domain).size();
}

std::uint64_t FailureDomainTree::fingerprint() const {
  std::uint64_t h = 0x64666c74646f6d31ULL;
  for (std::size_t d = 0; d < parent_.size(); ++d) {
    h = exec::splitmix64(h ^ parent_[d]);
    for (const char c : name_[d]) {
      h = exec::splitmix64(h ^ static_cast<std::uint64_t>(
                                   static_cast<unsigned char>(c)));
    }
  }
  for (std::size_t i = 0; i < target_ref_.size(); ++i) {
    h = exec::splitmix64(h ^ (static_cast<std::uint64_t>(target_ref_[i].target) |
                              (target_ref_[i].id << 8)));
    h = exec::splitmix64(h ^ target_domain_[i]);
  }
  return h;
}

void FailureDomainTree::check_domain(std::size_t domain,
                                     const char* what) const {
  if (domain >= parent_.size()) {
    throw holms::InvalidArgument(std::string("FailureDomainTree::") + what +
                                 ": domain id out of range");
  }
}

}  // namespace holms::fault
