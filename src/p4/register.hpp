// Stateful register arrays, the P4 externs the paper's data-plane program
// is built on (§3.3.2: "statistics are continuously updated and maintained
// by dedicated stateful registers where the data plane can track 2048
// active flows simultaneously").
//
// The emulation mirrors the Tofino programming model:
//  * the data plane performs indexed read/modify/write operations,
//  * the control plane reads cells (or the whole array) and may reset
//    them through the vendor "driver" API — exactly the interface the
//    paper's control plane uses to extract measurements at run time.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace p4s::p4 {

template <typename T>
class RegisterArray {
 public:
  explicit RegisterArray(std::size_t size, T initial = T{})
      : cells_(size, initial), initial_(initial) {}

  std::size_t size() const { return cells_.size(); }

  // ---- Data-plane interface -------------------------------------------

  T read(std::size_t index) {
    assert(index < cells_.size());
    return cells_[index];
  }

  void write(std::size_t index, T value) {
    assert(index < cells_.size());
    cells_[index] = value;
  }

  /// Atomic read-modify-write, the Tofino RegisterAction idiom. `fn`
  /// receives a mutable reference to the cell and returns the value
  /// forwarded to the pipeline.
  template <typename Fn>
  auto execute(std::size_t index, Fn&& fn) {
    assert(index < cells_.size());
    return fn(cells_[index]);
  }

  // ---- Control-plane ("driver") interface -----------------------------

  T cp_read(std::size_t index) const {
    assert(index < cells_.size());
    return cells_[index];
  }

  /// Bulk read of the whole array (the driver's sync-and-read).
  std::vector<T> cp_read_all() const { return cells_; }

  void cp_write(std::size_t index, T value) {
    assert(index < cells_.size());
    cells_[index] = value;
  }

  /// Reset every cell to the initial value.
  void cp_clear() {
    std::fill(cells_.begin(), cells_.end(), initial_);
  }

 private:
  std::vector<T> cells_;
  T initial_;
};

}  // namespace p4s::p4
