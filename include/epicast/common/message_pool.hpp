// epicast — per-scenario slab/freelist allocator for messages and events.
//
// End-to-end profiling attributes a large slice of scenario wall time to
// shared_ptr control-block churn: every hop allocates an EventMessage, every
// gossip round allocates digests/requests/replies, and all of them die
// within microseconds of simulated time. The pool recycles those blocks:
// allocations are bucketed into 64-byte size classes carved from large
// slabs, frees push onto per-class freelists, and the next allocation of
// the same class pops in O(1) with no malloc traffic.
//
// Lifetime rules:
//   * One pool per Simulator (i.e., per scenario). Scenarios are
//     single-threaded inside sweep workers, so the pool is UNSYNCHRONIZED
//     — never share one across threads.
//   * `make_pooled<T>` uses std::allocate_shared with an allocator that
//     holds a plain pointer to the pool's internal state, which counts its
//     live blocks. Destroying the MessagePool handle frees the state at
//     once if no block is live and otherwise marks it orphaned, so the last
//     deallocate frees it: outstanding objects (and their control blocks)
//     stay valid even if they outlive the handle, and slabs are reclaimed
//     when the last pooled object dies. (A refcounted pointer would be
//     copied and released several times per pooled object.)
//   * Under AddressSanitizer the pool runs in PassThrough mode (plain
//     operator new/delete per object) so ASan keeps poisoning freed
//     memory; EPICAST_POOL=off forces PassThrough in any build for A/B
//     measurements, EPICAST_POOL=on forces pooling even under ASan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace epicast {

#if defined(__SANITIZE_ADDRESS__)
#define EPICAST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EPICAST_ASAN 1
#endif
#endif

class MessagePool {
 public:
  enum class Mode {
    Pooling,      ///< slab/freelist recycling (the fast path)
    PassThrough,  ///< one operator new/delete per object (ASan-friendly)
  };

  struct Stats {
    std::uint64_t allocations = 0;    ///< total allocate() calls
    std::uint64_t deallocations = 0;  ///< total deallocate() calls
    std::uint64_t reuses = 0;         ///< allocations served from a freelist
    std::uint64_t oversize = 0;       ///< fell through to operator new
    std::uint64_t slab_bytes = 0;     ///< bytes reserved in slabs

    [[nodiscard]] std::uint64_t live() const {
      return allocations - deallocations;
    }
  };

  /// Constructs in the process-wide mode: env::settings().pool, which is
  /// PassThrough under ASan or EPICAST_POOL=off and Pooling otherwise
  /// (EPICAST_POOL=on overrides the ASan default).
  MessagePool();
  explicit MessagePool(Mode mode);
  ~MessagePool();
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  [[nodiscard]] Mode mode() const;
  [[nodiscard]] const Stats& stats() const;

  /// Raw allocation interface (size classes of kGranularity bytes, larger
  /// requests fall through to operator new). Blocks are aligned for any
  /// type with alignment <= alignof(std::max_align_t).
  [[nodiscard]] void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 16;  ///< up to 1024-byte blocks
  static constexpr std::size_t kSlabBytes = 64 * 1024;

 private:
  struct State {
    explicit State(Mode m) : mode(m) {}
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    ~State();

    [[nodiscard]] void* allocate(std::size_t bytes);
    void deallocate(void* p, std::size_t bytes) noexcept;

    Mode mode;
    Stats stats;
    /// Set when the handle is destroyed with blocks still live; the
    /// deallocate that returns the last of them then deletes the state.
    bool orphaned = false;
    /// Freelist heads per size class; each free block's first word links to
    /// the next free block of the class.
    void* free_[kClasses] = {};
    /// Bump area of the most recent slab.
    std::byte* bump = nullptr;
    std::size_t bump_left = 0;
    std::vector<void*> slabs;
  };

  State* state_;

 public:
  /// std::allocate_shared-compatible allocator. The pool state outlives
  /// every allocation (object or control block) made through it.
  template <typename T>
  class Allocator {
   public:
    using value_type = T;

    explicit Allocator(const MessagePool& pool) : state_(pool.state_) {}
    template <typename U>
    Allocator(const Allocator<U>& o) : state_(o.state_) {}  // NOLINT

    [[nodiscard]] T* allocate(std::size_t n) {
      return static_cast<T*>(state_->allocate(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
      state_->deallocate(p, n * sizeof(T));
    }

    template <typename U>
    [[nodiscard]] bool operator==(const Allocator<U>& o) const {
      return state_ == o.state_;
    }

   private:
    template <typename U>
    friend class Allocator;
    State* state_;
  };
};

/// Allocates a shared_ptr-managed T (object + control block in one pooled
/// allocation). Drop-in replacement for std::make_shared on hot paths that
/// have a Simulator (and thus a pool) at hand.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> make_pooled(const MessagePool& pool,
                                             Args&&... args) {
  return std::allocate_shared<T>(MessagePool::Allocator<T>(pool),
                                 std::forward<Args>(args)...);
}

}  // namespace epicast
