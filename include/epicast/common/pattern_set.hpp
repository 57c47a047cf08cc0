// epicast — width-dynamic bitset over the pattern universe.
//
// The paper's universe is Π ≤ 70 patterns, so a pattern set fits in the two
// inline 64-bit words and never touches the allocator — that layout (and
// the ascending-bit iteration order) is bit-identical to the fixed two-word
// bitset it replaced, which is what keeps the seed-guarded figure scenarios
// stable. Larger universes (Zipf-skewed 1k–10k patterns from CLI-configured
// scenarios) widen the word array on demand — from an Arena when the set
// was constructed with one (per-scenario node state), else from the heap —
// instead of falling back to sorted side maps.
//
// Invariants:
//   * width only grows, and only via set() / set_all() / reserve() / |= —
//     test() on a pattern beyond the current width is simply false, so
//     width is an implementation detail: two sets are equal iff their
//     members are, regardless of width;
//   * iteration and nth() enumerate set bits in ascending pattern order,
//     which equals the sorted order of the vectors they replaced — this is
//     what keeps RNG-driven sampling (`patterns[rng.next_below(n)]`)
//     bit-identical across layout migrations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "epicast/common/arena.hpp"
#include "epicast/common/assert.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

class PatternSet {
 public:
  /// Patterns below this live in the inline words — no allocation ever.
  static constexpr std::uint32_t kInlineCapacity = 128;

  constexpr PatternSet() = default;

  /// Pre-sized for patterns in [0, universe). Widths beyond the inline
  /// words come from `arena` when given (per-scenario state), else the
  /// heap. The set auto-grows past `universe` if asked to.
  explicit PatternSet(std::uint32_t universe, Arena* arena = nullptr)
      : arena_(arena) {
    reserve(universe);
  }

  PatternSet(const PatternSet& o) { assign(o); }
  PatternSet& operator=(const PatternSet& o) {
    if (this != &o) assign(o);
    return *this;
  }
  PatternSet(PatternSet&& o) noexcept { steal(o); }
  PatternSet& operator=(PatternSet&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~PatternSet() { release(); }

  /// Number of pattern values the current width can hold. Grows on demand;
  /// mostly interesting for memory accounting and tests.
  [[nodiscard]] std::uint32_t capacity() const { return nwords_ * 64; }

  /// Bytes owned outside the object itself (0 while inline).
  [[nodiscard]] std::size_t memory_bytes() const {
    return words_ == inline_ ? 0 : nwords_ * sizeof(std::uint64_t);
  }

  /// Widens the set so patterns in [0, universe) need no further growth.
  void reserve(std::uint32_t universe) {
    const std::uint32_t need = words_for(universe);
    if (need > nwords_) grow(need);
  }

  /// Sets the bit for `p`, widening if needed. Returns true if newly set.
  bool set(Pattern p) {
    const std::uint32_t v = p.value();
    if (v >= capacity()) grow_for(v);
    std::uint64_t& w = words_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    const bool added = (w & bit) == 0;
    w |= bit;
    return added;
  }

  /// Sets every member of `o`: the same members and the same width as
  /// calling set() for each of them in ascending order, in one word pass
  /// (bulk route installs keep the per-pattern memory footprint this way).
  void set_all(const PatternSet& o) { set_words({o.words_, o.nwords_}); }

  /// set_all() over raw bitset words: word i holds patterns 64i … 64i+63.
  void set_words(std::span<const std::uint64_t> words) {
    for (std::uint32_t i = 0; i < words.size(); ++i) {
      if (words[i] == 0) continue;
      // set() of this word's lowest member would grow exactly so.
      if (i >= nwords_) grow(i + 1 > nwords_ * 2 ? i + 1 : nwords_ * 2);
      words_[i] |= words[i];
    }
  }

  /// Clears the bit for `p`. Returns true if it was set.
  bool clear(Pattern p) {
    const std::uint32_t v = p.value();
    if (v >= capacity()) return false;
    std::uint64_t& w = words_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    const bool removed = (w & bit) != 0;
    w &= ~bit;
    return removed;
  }

  /// Membership test; false beyond the current width (such patterns were
  /// never set), so width never changes observable behavior.
  [[nodiscard]] bool test(Pattern p) const {
    const std::uint32_t v = p.value();
    if (v >= capacity()) return false;
    return (words_[v >> 6] >> (v & 63)) & 1;
  }

  [[nodiscard]] bool any() const {
    if (nwords_ == kInlineWords) return (words_[0] | words_[1]) != 0;
    for (std::uint32_t i = 0; i < nwords_; ++i) {
      if (words_[i] != 0) return true;
    }
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  [[nodiscard]] std::size_t count() const {
    if (nwords_ == kInlineWords) {
      return static_cast<std::size_t>(std::popcount(words_[0]) +
                                      std::popcount(words_[1]));
    }
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < nwords_; ++i) n += std::popcount(words_[i]);
    return n;
  }

  /// True if the two sets share at least one pattern.
  [[nodiscard]] bool intersects(const PatternSet& o) const {
    if (nwords_ == kInlineWords && o.nwords_ == kInlineWords) {
      return ((words_[0] & o.words_[0]) | (words_[1] & o.words_[1])) != 0;
    }
    const std::uint32_t common = nwords_ < o.nwords_ ? nwords_ : o.nwords_;
    for (std::uint32_t i = 0; i < common; ++i) {
      if ((words_[i] & o.words_[i]) != 0) return true;
    }
    return false;
  }

  PatternSet& operator|=(const PatternSet& o) {
    if (o.nwords_ > nwords_ && o.top_set_word() >= nwords_) {
      grow(o.nwords_);
    }
    const std::uint32_t common = nwords_ < o.nwords_ ? nwords_ : o.nwords_;
    for (std::uint32_t i = 0; i < common; ++i) words_[i] |= o.words_[i];
    return *this;
  }
  PatternSet& operator&=(const PatternSet& o) {
    const std::uint32_t common = nwords_ < o.nwords_ ? nwords_ : o.nwords_;
    for (std::uint32_t i = 0; i < common; ++i) words_[i] &= o.words_[i];
    for (std::uint32_t i = common; i < nwords_; ++i) words_[i] = 0;
    return *this;
  }
  friend PatternSet operator|(PatternSet a, const PatternSet& b) {
    return a |= b;
  }
  friend PatternSet operator&(PatternSet a, const PatternSet& b) {
    return a &= b;
  }

  /// Width-insensitive: equal iff the same members are set.
  friend bool operator==(const PatternSet& a, const PatternSet& b) {
    const std::uint32_t common = a.nwords_ < b.nwords_ ? a.nwords_ : b.nwords_;
    for (std::uint32_t i = 0; i < common; ++i) {
      if (a.words_[i] != b.words_[i]) return false;
    }
    const PatternSet& wide = a.nwords_ < b.nwords_ ? b : a;
    for (std::uint32_t i = common; i < wide.nwords_; ++i) {
      if (wide.words_[i] != 0) return false;
    }
    return true;
  }

  /// Calls `f(Pattern)` for every member, in ascending pattern order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t word = 0; word < nwords_; ++word) {
      std::uint64_t w = words_[word];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        f(Pattern{word * 64 + static_cast<std::uint32_t>(bit)});
        w &= w - 1;  // clear lowest set bit
      }
    }
  }

  /// The k-th member in ascending order. Precondition: k < count().
  [[nodiscard]] Pattern nth(std::size_t k) const {
    for (std::uint32_t word = 0; word < nwords_; ++word) {
      std::uint64_t w = words_[word];
      const auto pop = static_cast<std::size_t>(std::popcount(w));
      if (k >= pop) {
        k -= pop;
        continue;
      }
      // Pattern counts per word are tiny, so a clear-lowest-bit loop beats
      // fancier selects in practice and stays portable.
      while (k-- > 0) w &= w - 1;
      return Pattern{word * 64 + static_cast<std::uint32_t>(std::countr_zero(w))};
    }
    EPICAST_ASSERT(false && "nth(k) with k >= count()");
    return Pattern{0};
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;

  [[nodiscard]] static constexpr std::uint32_t words_for(std::uint32_t universe) {
    const std::uint32_t w = (universe + 63) / 64;
    return w < kInlineWords ? kInlineWords : w;
  }

  /// Index just past the highest non-zero word (0 if empty).
  [[nodiscard]] std::uint32_t top_set_word() const {
    for (std::uint32_t i = nwords_; i > 0; --i) {
      if (words_[i - 1] != 0) return i - 1;
    }
    return 0;
  }

  void grow_for(std::uint32_t pattern_value) {
    std::uint32_t need = words_for(pattern_value + 1);
    // Geometric growth so repeated set() of ascending patterns stays O(n).
    if (need < nwords_ * 2) need = nwords_ * 2;
    grow(need);
  }

  void grow(std::uint32_t new_words) {
    EPICAST_ASSERT(new_words > nwords_);
    auto* w = arena_ != nullptr
                  ? arena_->allocate_array<std::uint64_t>(new_words)
                  : new std::uint64_t[new_words]{};
    for (std::uint32_t i = 0; i < nwords_; ++i) w[i] = words_[i];
    release();
    words_ = w;
    nwords_ = new_words;
  }

  void assign(const PatternSet& o) {
    // Copies keep the destination's own arena policy — a default-constructed
    // destination grows via the heap even when the source is arena-backed.
    if (o.nwords_ > nwords_) grow(o.nwords_);
    for (std::uint32_t i = 0; i < o.nwords_; ++i) words_[i] = o.words_[i];
    for (std::uint32_t i = o.nwords_; i < nwords_; ++i) words_[i] = 0;
  }

  void steal(PatternSet& o) {
    if (o.words_ == o.inline_) {
      words_ = inline_;
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
      nwords_ = kInlineWords;
    } else {
      words_ = o.words_;
      nwords_ = o.nwords_;
    }
    arena_ = o.arena_;
    o.words_ = o.inline_;
    o.nwords_ = kInlineWords;
    o.inline_[0] = 0;
    o.inline_[1] = 0;
  }

  void release() {
    // Arena blocks are abandoned (reclaimed at scenario teardown).
    if (words_ != inline_ && arena_ == nullptr) delete[] words_;
  }

  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::uint64_t* words_ = inline_;
  std::uint32_t nwords_ = kInlineWords;
  Arena* arena_ = nullptr;
};

}  // namespace epicast
