// epicast — duplicate-suppression set over event ids.
//
// Event ids are (source, per-source counter) with counters assigned densely
// from 0 (paper footnote 3), so "which ids has this dispatcher seen" is a
// per-source bitmap, not a hash set: membership is two array indexations
// and a bit test. Dispatchers consult this on every event reception and —
// hotter still — once per id of every push digest received, where the hash
// set's cold-bucket probes dominated the gossip-handling profile.
//
// Two layouts behind one interface:
//   * dense (default, and any N up to kDenseSourceLimit): one bitmap row
//     per source, grown on demand — the paper-scale layout;
//   * sparse (hinted N beyond the limit): per-node row headers alone would
//     cost O(N²) across N dispatchers (≈2.4 GB at N=10⁴), yet each node
//     only ever sees events from the sources that publish near it — so the
//     rows collapse into the common FlatHashMap keyed (source, seq-block) →
//     64-bit word, sized by what was actually seen.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

class SeenSet {
 public:
  /// Hinted-source-count threshold above which the sparse layout is used.
  static constexpr std::uint32_t kDenseSourceLimit = 2048;

  SeenSet() = default;

  /// `sources` is the number of dispatchers in the scenario (a sizing hint,
  /// not a bound). Small scenarios keep the dense per-source rows; beyond
  /// kDenseSourceLimit the sparse table takes over.
  explicit SeenSet(std::uint32_t sources)
      : sparse_(sources > kDenseSourceLimit) {}

  /// Marks `id` as seen. Returns true if it was not seen before (mirrors
  /// std::unordered_set::insert().second).
  bool insert(const EventId& id) {
    std::uint64_t& word = sparse_ ? words_[key_of(id)] : dense_word(id);
    const std::uint64_t bit = std::uint64_t{1} << (id.source_seq & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(const EventId& id) const {
    const std::uint64_t bit = std::uint64_t{1} << (id.source_seq & 63);
    if (sparse_) {
      const std::uint64_t* word = words_.find(key_of(id));
      return word != nullptr && (*word & bit) != 0;
    }
    const std::size_t src = id.source.value();
    if (src >= rows_.size()) return false;
    const std::vector<std::uint64_t>& row = rows_[src];
    const std::size_t word = id.source_seq >> 6;
    return word < row.size() && (row[word] & bit) != 0;
  }

  /// Number of distinct ids inserted.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Bytes owned beyond the object itself — per-component accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    if (sparse_) return words_.memory_bytes();
    std::size_t n = rows_.capacity() * sizeof(rows_[0]);
    for (const auto& row : rows_) n += row.capacity() * sizeof(std::uint64_t);
    return n;
  }

 private:
  std::uint64_t& dense_word(const EventId& id) {
    const std::size_t src = id.source.value();
    if (src >= rows_.size()) rows_.resize(src + 1);
    std::vector<std::uint64_t>& row = rows_[src];
    const std::size_t word = id.source_seq >> 6;
    if (word >= row.size()) row.resize(word + 1, 0);
    return row[word];
  }

  /// (source, 64-id block).
  [[nodiscard]] static std::uint64_t key_of(const EventId& id) {
    return (static_cast<std::uint64_t>(id.source.value()) << 32) |
           (id.source_seq >> 6);
  }

  bool sparse_ = false;
  std::vector<std::vector<std::uint64_t>> rows_;         // dense mode
  FlatHashMap<std::uint64_t, std::uint64_t, U64Key> words_;  // sparse mode
  std::uint64_t size_ = 0;
};

}  // namespace epicast
