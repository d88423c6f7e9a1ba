#include "bdd/bdd.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace rd {

struct BddManager::NodeLimitExceeded : std::runtime_error {
  NodeLimitExceeded() : std::runtime_error("BddManager: node limit exceeded") {}
};

namespace {
// Refs and variable levels are packed three-per-64-bit-key, which caps
// both at 2^21.
constexpr std::size_t kPackBits = 21;
constexpr std::size_t kPackLimit = std::size_t{1} << kPackBits;

std::uint64_t pack(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return (static_cast<std::uint64_t>(a) << (2 * kPackBits)) |
         (static_cast<std::uint64_t>(b) << kPackBits) |
         static_cast<std::uint64_t>(c);
}
}  // namespace

BddManager::BddManager(std::uint32_t num_vars, std::size_t max_nodes)
    : num_vars_(num_vars), max_nodes_(std::min(max_nodes, kPackLimit)) {
  if (num_vars >= kPackLimit)
    throw std::invalid_argument("BddManager: too many variables");
  nodes_.push_back(Node{num_vars_, kBddFalse, kBddFalse});  // 0 = false
  nodes_.push_back(Node{num_vars_, kBddTrue, kBddTrue});    // 1 = true
}

BddRef BddManager::make_node(std::uint32_t var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  const std::uint64_t key = pack(var, lo, hi);
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  if (nodes_.size() >= max_nodes_) throw NodeLimitExceeded{};
  const BddRef ref = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_.emplace(key, ref);
  return ref;
}

BddRef BddManager::var(std::uint32_t index) {
  if (index >= num_vars_) throw std::invalid_argument("BddManager: bad var");
  return make_node(index, kBddFalse, kBddTrue);
}

BddRef BddManager::nvar(std::uint32_t index) {
  if (index >= num_vars_) throw std::invalid_argument("BddManager: bad var");
  return make_node(index, kBddTrue, kBddFalse);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  const std::uint64_t key = pack(f, g, h);
  const auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  const std::uint32_t top =
      std::min({level(f), level(g), level(h)});
  auto cofactor = [&](BddRef node, bool positive) {
    if (level(node) != top) return node;
    return positive ? nodes_[node].hi : nodes_[node].lo;
  };
  const BddRef lo = ite(cofactor(f, false), cofactor(g, false),
                        cofactor(h, false));
  const BddRef hi =
      ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const BddRef result = make_node(top, lo, hi);
  ite_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::restrict_var(BddRef f, std::uint32_t index, bool value) {
  if (index >= num_vars_) throw std::invalid_argument("BddManager: bad var");
  // ite(x, f|x=1, f|x=0) == f, so f|x=v is computable by recursion; a
  // local memo keeps it linear in the BDD size.
  std::unordered_map<BddRef, BddRef> memo;
  std::function<BddRef(BddRef)> walk = [&](BddRef node) -> BddRef {
    if (level(node) > index) return node;  // index not in support below
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    BddRef result;
    if (level(node) == index) {
      result = value ? nodes_[node].hi : nodes_[node].lo;
    } else {
      result = make_node(level(node), walk(nodes_[node].lo),
                         walk(nodes_[node].hi));
    }
    memo.emplace(node, result);
    return result;
  };
  return walk(f);
}

bool BddManager::evaluate(BddRef f, const std::vector<bool>& assignment) const {
  if (assignment.size() != num_vars_)
    throw std::invalid_argument("BddManager: assignment arity mismatch");
  while (f != kBddFalse && f != kBddTrue)
    f = assignment[nodes_[f].var] ? nodes_[f].hi : nodes_[f].lo;
  return f == kBddTrue;
}

std::optional<std::vector<bool>> BddManager::any_sat(BddRef f) const {
  if (f == kBddFalse) return std::nullopt;
  std::vector<bool> assignment(num_vars_, false);
  while (f != kBddTrue) {
    const Node& node = nodes_[f];
    if (node.lo != kBddFalse) {
      assignment[node.var] = false;
      f = node.lo;
    } else {
      assignment[node.var] = true;
      f = node.hi;
    }
  }
  return assignment;
}

BigUint BddManager::sat_count(BddRef f) const {
  // Powers of two by level distance.
  std::vector<BigUint> power(num_vars_ + 1);
  power[0] = BigUint(1);
  for (std::uint32_t i = 1; i <= num_vars_; ++i) {
    power[i] = power[i - 1];
    power[i] *= 2u;
  }
  std::unordered_map<BddRef, BigUint> memo;
  std::function<BigUint(BddRef)> count = [&](BddRef node) -> BigUint {
    if (node == kBddFalse) return BigUint(0);
    if (node == kBddTrue) return BigUint(1);
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[node];
    BigUint lo_count = count(n.lo);
    lo_count *= power[level(n.lo) - n.var - 1];
    BigUint hi_count = count(n.hi);
    hi_count *= power[level(n.hi) - n.var - 1];
    BigUint total = lo_count + hi_count;
    memo.emplace(node, total);
    return total;
  };
  BigUint total = count(f);
  total *= power[level(f)];  // variables above the root are free
  return total;
}

}  // namespace rd
