// epicast — exact set of (event, node) pairs for the conformance oracles.
//
// Event ids are (source, per-source counter) with counters assigned densely
// from 0 (paper footnote 3), the precondition SeenSet already relies on, so
// the pairs an oracle has seen are a bitmap, not a hash set: one row per
// source, and in each row one node bitmap per sequence number, `width()`
// 64-bit words long. Membership is two array indexations and a bit test,
// and a published event costs `width()` words however many of its pairs are
// stored (16 bytes at N = 100), where a hash set pays 25–57 bytes a pair
// and holds its old and new arrays at once while it doubles.
//
// `width()` starts at one word and grows the first time a node id at or past
// 64·width() arrives; every row is then re-laid at the new stride, so each
// pair stored before the widen is still found after it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"

namespace epicast::oracle {

class PairSet {
 public:
  /// Adds (id, node). Returns true if the pair was not in the set.
  bool insert(const EventId& id, NodeId node) {
    const std::size_t word = node.value() >> 6;
    if (word >= width_) widen(word + 1);
    const std::size_t src = id.source.value();
    if (src >= rows_.size()) rows_.resize(src + 1);
    std::vector<std::uint64_t>& row = rows_[src];
    const std::size_t at = id.source_seq * width_ + word;
    if (at >= row.size()) row.resize((id.source_seq + 1) * width_, 0);
    const std::uint64_t bit = std::uint64_t{1} << (node.value() & 63);
    if ((row[at] & bit) != 0) return false;
    row[at] |= bit;
    return true;
  }

  [[nodiscard]] bool contains(const EventId& id, NodeId node) const {
    const std::size_t word = node.value() >> 6;
    const std::size_t src = id.source.value();
    if (word >= width_ || src >= rows_.size()) return false;
    const std::vector<std::uint64_t>& row = rows_[src];
    if (id.source_seq >= row.size() / width_) return false;
    const std::uint64_t bits = row[id.source_seq * width_ + word];
    return ((bits >> (node.value() & 63)) & 1) != 0;
  }

  /// Words per node bitmap: one per 64 node ids up to the largest stored.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Bytes owned beyond the object itself.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t n = rows_.capacity() * sizeof(rows_[0]);
    for (const auto& row : rows_) n += row.capacity() * sizeof(std::uint64_t);
    return n;
  }

 private:
  /// Re-lays every row at `width` words a sequence number: each bitmap's
  /// old words keep their offset, the new words above them start clear.
  void widen(std::size_t width) {
    for (std::vector<std::uint64_t>& row : rows_) {
      const std::size_t seqs = row.size() / width_;
      std::vector<std::uint64_t> wide(seqs * width, 0);
      for (std::size_t s = 0; s < seqs; ++s) {
        std::copy_n(row.begin() + static_cast<std::ptrdiff_t>(s * width_),
                    width_,
                    wide.begin() + static_cast<std::ptrdiff_t>(s * width));
      }
      row = std::move(wide);
    }
    width_ = width;
  }

  std::vector<std::vector<std::uint64_t>> rows_;  // per source, seq-major
  std::size_t width_ = 1;
};

}  // namespace epicast::oracle
