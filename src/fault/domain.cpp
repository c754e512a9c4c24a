#include "fault/domain.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "exec/error.hpp"
#include "exec/rng_stream.hpp"

namespace holms::fault {
namespace {

bool ref_less(const TargetRef& a, const TargetRef& b) {
  return std::tie(a.target, a.id) < std::tie(b.target, b.id);
}

}  // namespace

FailureDomainTree::FailureDomainTree(std::string root_name) {
  parent_.push_back(0);
  name_.push_back(std::move(root_name));
  children_.emplace_back();
  mapped_.emplace_back();
}

std::size_t FailureDomainTree::add_domain(std::size_t parent,
                                          std::string name) {
  check_domain(parent, "add_domain");
  const std::size_t id = parent_.size();
  parent_.push_back(parent);
  name_.push_back(std::move(name));
  children_.emplace_back();
  mapped_.emplace_back();
  children_[parent].push_back(id);
  return id;
}

void FailureDomainTree::map_target(Target target, std::size_t id,
                                   std::size_t domain) {
  check_domain(domain, "map_target");
  const TargetRef ref{target, id};
  auto at = sorted_.end();
  if (!sorted_.empty() && !ref_less(sorted_.back(), ref)) {
    at = std::lower_bound(sorted_.begin(), sorted_.end(), ref, ref_less);
    if (!ref_less(ref, *at)) {
      throw holms::InvalidArgument(
          "FailureDomainTree::map_target: target already mapped");
    }
  }
  sorted_.insert(at, ref);
  mapped_[domain].push_back(target_ref_.size());
  target_ref_.push_back(ref);
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

template <typename F>
void FailureDomainTree::for_subtree(std::size_t domain, F&& f) const {
  std::vector<std::size_t> stack{domain};
  while (!stack.empty()) {
    const std::size_t d = stack.back();
    stack.pop_back();
    f(d);
    stack.insert(stack.end(), children_[d].rbegin(), children_[d].rend());
  }
}

std::vector<TargetRef> FailureDomainTree::targets_under(
    std::size_t domain) const {
  check_domain(domain, "targets_under");
  std::vector<TargetRef> out;
  for_subtree(domain, [&](std::size_t d) {
    for (const std::size_t i : mapped_[d]) out.push_back(target_ref_[i]);
  });
  std::sort(out.begin(), out.end(), ref_less);
  return out;
}

std::size_t FailureDomainTree::subtree_targets(std::size_t domain) const {
  check_domain(domain, "subtree_targets");
  std::size_t n = 0;
  for_subtree(domain, [&](std::size_t d) { n += mapped_[d].size(); });
  return n;
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
