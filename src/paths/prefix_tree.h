// Shared path-prefix tree support for the incremental classifiers.
//
// Two logical paths that share their first k leads derive identical
// local implications up to the divergence gate, so a classifier that
// walks the *prefix tree* (every distinct lead-prefix is one node)
// pays each shared prefix once instead of once per path.  This header
// provides PathKeyArena, the pooled flat storage for the path keys that
// traversal collects (one append, zero per-path heap allocations), kept
// below the simulation layer (no CompiledCircuit/engine dependency —
// rd_sim links rd_paths, not the other way around).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/circuit.h"

namespace rd {

/// Pooled storage for logical-path keys (the lead-id sequence followed
/// by the final-value bit, the same encoding as LogicalPath::key()).
/// All keys live in one flat buffer with an offset table, so recording
/// a survivor is an amortized append into reused capacity instead of a
/// fresh std::vector per path.
class PathKeyArena {
 public:
  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Drops the keys but keeps the reserved capacity (the pooling).
  void clear() {
    data_.clear();
    ends_.clear();
  }

  /// Appends the key of one survivor: `segment` plus the transition
  /// bit.
  void append(const std::vector<LeadId>& segment, bool final_value) {
    data_.insert(data_.end(), segment.begin(), segment.end());
    data_.push_back(final_value ? 1u : 0u);
    ends_.push_back(data_.size());
  }

  /// Materializes key `i` in the LogicalPath::key() encoding.
  std::vector<std::uint32_t> key(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::vector<std::uint32_t>(data_.begin() + begin,
                                      data_.begin() + ends_[i]);
  }

  /// Bytes of heap currently reserved (for ExecGuard::add_memory: the
  /// caller charges the *growth* of this value across an append, so
  /// the accounting stays exact while reused capacity costs nothing).
  std::uint64_t capacity_bytes() const {
    return data_.capacity() * sizeof(std::uint32_t) +
           ends_.capacity() * sizeof(std::size_t);
  }

 private:
  std::vector<std::uint32_t> data_;
  // End offset of key i (its begin is ends_[i - 1], 0 for the first):
  // the implicit leading zero keeps a default-constructed arena
  // allocation-free, which matters to drivers that build one per seed.
  std::vector<std::size_t> ends_;
};

}  // namespace rd
