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
//     single-threaded inside sweep workers, so the pool defaults to
//     UNSYNCHRONIZED — never share one across threads unless
//     set_thread_safe(true) was called (the sharded engine's threaded
//     windows do: a MessagePtr allocated on one lane can drop its last
//     reference on another, or at the barrier replay).
//   * `make_pooled<T>` uses std::allocate_shared with an allocator that
//     holds a shared_ptr to the pool's internal state, so outstanding
//     objects (and their control blocks) stay valid even if they outlive
//     the MessagePool handle itself; slabs are reclaimed when the last
//     pooled object dies.
//   * Under AddressSanitizer the pool runs in PassThrough mode (plain
//     operator new/delete per object) so ASan keeps poisoning freed
//     memory; EPICAST_POOL=off forces PassThrough in any build for A/B
//     measurements, EPICAST_POOL=on forces pooling even under ASan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Default-constructs with default_mode() (ASan/EPICAST_POOL aware).
  MessagePool() : MessagePool(default_mode()) {}
  explicit MessagePool(Mode mode);

  [[nodiscard]] Mode mode() const;
  [[nodiscard]] const Stats& stats() const;

  /// Raw allocation interface (size classes of kGranularity bytes, larger
  /// requests fall through to operator new). Blocks are aligned for any
  /// type with alignment <= alignof(std::max_align_t).
  [[nodiscard]] void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Serializes allocate/deallocate behind a mutex. The scenario runner
  /// enables this before a threaded run; off (the default) the pool stays
  /// lock-free single-threaded with zero overhead.
  void set_thread_safe(bool on);

  /// The process-wide default: PassThrough under ASan or EPICAST_POOL=off,
  /// Pooling otherwise (EPICAST_POOL=on overrides the ASan default).
  [[nodiscard]] static Mode default_mode();

  /// Interprets an EPICAST_POOL value: unset (null) or empty keeps the
  /// build default, "on"/"1" select Pooling, "off"/"0" PassThrough, and any
  /// other spelling aborts with a message naming the variable.
  [[nodiscard]] static Mode mode_from_env(const char* value);

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
    bool thread_safe = false;  ///< set before threads exist, stable after
    std::mutex mu;             ///< taken only when thread_safe
    Stats stats;
    /// Freelist heads per size class; each free block's first word links to
    /// the next free block of the class.
    void* free_[kClasses] = {};
    /// Bump area of the most recent slab.
    std::byte* bump = nullptr;
    std::size_t bump_left = 0;
    std::vector<void*> slabs;
  };

  std::shared_ptr<State> state_;

 public:
  /// std::allocate_shared-compatible allocator keeping the pool state alive
  /// for as long as any allocation (object or control block) is live.
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
    std::shared_ptr<State> state_;
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
