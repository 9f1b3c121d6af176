// FIFO queue whose elements live in fixed-size chunks linked head to
// tail. A push that finds the tail chunk full links a new one; a pop that
// drains the head chunk unlinks it and keeps it as the spare, which the
// next new tail reuses. So a queue whose depth stays within a chunk or so
// of its past depth pushes and pops without allocating, and its memory
// is its current depth plus at most two chunks — it never holds storage
// sized for a past peak, as a doubling ring would.
//
// The simulator's per-hop queues use it: a link's packets in flight, a
// port's drop-tail queue and the event queue's lanes.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace p4s::util {

template <typename T>
class ChunkedFifo {
 public:
  /// Elements per chunk: about 4 KiB of elements, and at least 8.
  static constexpr std::size_t kChunkElems =
      sizeof(T) * 8 >= 4096 ? 8 : 4096 / sizeof(T);

  ChunkedFifo() = default;
  ChunkedFifo(const ChunkedFifo&) = delete;
  ChunkedFifo& operator=(const ChunkedFifo&) = delete;
  ~ChunkedFifo() {
    while (!empty()) pop();
    delete head_;  // the one chunk left, if any (head_ == tail_)
    delete spare_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Elements never move once pushed: a reference stays valid across
  /// pushes, until its element is popped.
  T& front() { return *head_->at(head_pos_); }
  T& back() { return *tail_->at(tail_pos_ - 1); }

  void push(const T& value) { emplace(value); }
  void push(T&& value) { emplace(std::move(value)); }

  template <typename... Args>
  T& emplace(Args&&... args) {
    if (tail_ == nullptr || tail_pos_ == kChunkElems) link_tail();
    T* slot = ::new (tail_->raw(tail_pos_)) T(std::forward<Args>(args)...);
    ++tail_pos_;
    ++size_;
    return *slot;
  }

  /// Remove the front element. The queue must not be empty.
  void pop() {
    std::destroy_at(&front());
    if (--size_ == 0) {
      // The last element sat in the tail chunk: refill it from the start.
      head_pos_ = tail_pos_ = 0;
      return;
    }
    if (++head_pos_ == kChunkElems) {
      Chunk* drained = std::exchange(head_, head_->next);
      head_pos_ = 0;
      delete spare_;  // keep only the most recently drained chunk
      spare_ = drained;
    }
  }

 private:
  struct Chunk {
    alignas(T) std::byte storage[kChunkElems * sizeof(T)];
    Chunk* next = nullptr;

    void* raw(std::size_t i) { return storage + i * sizeof(T); }
    T* at(std::size_t i) { return std::launder(static_cast<T*>(raw(i))); }
  };

  void link_tail() {
    Chunk* chunk = spare_ != nullptr ? std::exchange(spare_, nullptr)
                                     : new Chunk;
    chunk->next = nullptr;
    if (tail_ == nullptr) {
      head_ = chunk;
    } else {
      tail_->next = chunk;
    }
    tail_ = chunk;
    tail_pos_ = 0;
  }

  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  Chunk* spare_ = nullptr;
  std::size_t head_pos_ = 0;  // index of front() in head_
  std::size_t tail_pos_ = 0;  // one past back() in tail_
  std::size_t size_ = 0;
};

}  // namespace p4s::util
