#include "epicast/common/message_pool.hpp"

#include <cstring>

#include "epicast/common/assert.hpp"
#include "epicast/common/env.hpp"

namespace epicast {
namespace {

/// Size class of a request, or kClasses for oversize requests.
std::size_t class_of(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  const std::size_t c = (bytes - 1) / MessagePool::kGranularity;
  return c < MessagePool::kClasses ? c : MessagePool::kClasses;
}

constexpr std::size_t class_bytes(std::size_t c) {
  return (c + 1) * MessagePool::kGranularity;
}

}  // namespace

MessagePool::MessagePool() : MessagePool(env::settings().pool) {}

MessagePool::MessagePool(Mode mode) : state_(std::make_shared<State>(mode)) {}

MessagePool::Mode MessagePool::mode() const { return state_->mode; }

const MessagePool::Stats& MessagePool::stats() const { return state_->stats; }

void* MessagePool::allocate(std::size_t bytes) {
  return state_->allocate(bytes);
}

void MessagePool::deallocate(void* p, std::size_t bytes) noexcept {
  state_->deallocate(p, bytes);
}

MessagePool::State::~State() {
  for (void* slab : slabs) ::operator delete(slab);
}

void* MessagePool::State::allocate(std::size_t bytes) {
  ++stats.allocations;
  const std::size_t c = class_of(bytes);
  if (mode == Mode::PassThrough || c == kClasses) {
    if (c == kClasses) ++stats.oversize;
    return ::operator new(bytes);
  }
  if (void* block = free_[c]) {
    std::memcpy(&free_[c], block, sizeof(void*));  // pop the freelist head
    ++stats.reuses;
    return block;
  }
  const std::size_t need = class_bytes(c);
  if (bump_left < need) {
    // 64-byte blocks carved from an operator-new slab stay aligned for any
    // alignof(std::max_align_t) type; that covers every pooled message.
    bump = static_cast<std::byte*>(::operator new(kSlabBytes));
    bump_left = kSlabBytes;
    slabs.push_back(bump);
    stats.slab_bytes += kSlabBytes;
  }
  void* block = bump;
  bump += need;
  bump_left -= need;
  return block;
}

void MessagePool::State::deallocate(void* p, std::size_t bytes) noexcept {
  ++stats.deallocations;
  const std::size_t c = class_of(bytes);
  if (mode == Mode::PassThrough || c == kClasses) {
    ::operator delete(p);
    return;
  }
  std::memcpy(p, &free_[c], sizeof(void*));  // push onto the freelist
  free_[c] = p;
}

}  // namespace epicast
