// FIFO-bounded hash set, the idiom Geth uses for per-peer knownTxs /
// knownBlocks caches: constant memory, oldest entries evicted first.
//
// Layout (DESIGN.md §12, "Relay-state layout"): a ring of values in insertion
// order plus an open-addressed, linearly probed index of uint32 ring
// positions. Entries cost no allocation of their own; evicting the oldest
// entry reuses its ring slot and removes its index cell by backward shift,
// so the index never holds tombstones. Storage grows geometrically up to the
// cap: a fresh set allocates nothing, and a set that never fills never pays
// for the cap.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ethsim {

template <typename T, typename Hash = std::hash<T>>
class BoundedSet {
 public:
  explicit BoundedSet(std::size_t capacity) : capacity_(capacity) {
    assert(capacity >= 1 && capacity < (std::size_t{1} << 32));
  }

  // Inserts; returns false if already present. Evicts the oldest entry when
  // over capacity.
  bool Insert(const T& value) {
    std::size_t cell = 0;
    if (!index_.empty()) {
      for (cell = Home(value); index_[cell] != kEmpty; cell = Next(cell))
        if (ring_[index_[cell]] == value) return false;
    }
    if (size_ == capacity_) {
      // Full: the oldest entry's ring slot takes the new value. Erasing its
      // index cell may shift the probe run `cell` was found on, so re-probe.
      EraseCell(oldest_);
      ring_[oldest_] = value;
      Place(oldest_);
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
      return true;
    }
    // Not yet full: nothing was evicted, so the entries are ring_[0, size_).
    if (size_ == ring_.size()) {
      Grow();
      ring_[size_] = value;
      Place(static_cast<std::uint32_t>(size_));
    } else {
      ring_[size_] = value;
      index_[cell] = static_cast<std::uint32_t>(size_);
    }
    ++size_;
    return true;
  }

  bool Contains(const T& value) const {
    if (index_.empty()) return false;
    for (std::size_t cell = Home(value); index_[cell] != kEmpty;
         cell = Next(cell))
      if (ring_[index_[cell]] == value) return true;
    return false;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kMinRing = 8;
  static constexpr std::size_t kMinCells = 16;

  // Fibonacci hashing: the top bits of hash * 2^64/phi, so low-entropy hashes
  // (std::hash of an integer is the identity) still spread over the table.
  std::size_t Home(const T& value) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(hash_(value)) * 0x9E3779B97F4A7C15ull) >>
        shift_);
  }
  std::size_t Next(std::size_t cell) const { return (cell + 1) & mask_; }

  // Indexes ring position `pos` at the first free cell of its probe run.
  void Place(std::uint32_t pos) {
    std::size_t cell = Home(ring_[pos]);
    while (index_[cell] != kEmpty) cell = Next(cell);
    index_[cell] = pos;
  }

  // Removes the cell holding ring position `pos`, then closes the hole by
  // backward shift: each later cell of the run moves into the hole unless its
  // home lies cyclically in (hole, cell], where moving it would break its own
  // probe run.
  void EraseCell(std::uint32_t pos) {
    std::size_t hole = Home(ring_[pos]);
    while (index_[hole] != pos) hole = Next(hole);
    for (std::size_t cell = Next(hole); index_[cell] != kEmpty;
         cell = Next(cell)) {
      const std::size_t home = Home(ring_[index_[cell]]);
      if (((cell - home) & mask_) >= ((cell - hole) & mask_)) {
        index_[hole] = index_[cell];
        hole = cell;
      }
    }
    index_[hole] = kEmpty;
  }

  // Doubles the ring (clamped to the cap) and rebuilds the index at a load
  // factor of at most 1/2.
  void Grow() {
    const std::size_t ring =
        std::min(capacity_, std::max(kMinRing, ring_.size() * 2));
    ring_.resize(ring);
    const std::size_t cells = std::max(kMinCells, std::bit_ceil(2 * ring));
    index_.assign(cells, kEmpty);
    mask_ = cells - 1;
    shift_ = 64 - std::countr_zero(cells);
    for (std::uint32_t pos = 0; pos < size_; ++pos) Place(pos);
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint32_t oldest_ = 0;  // ring position evicted next, once full
  std::vector<T> ring_;
  std::vector<std::uint32_t> index_;  // ring positions; kEmpty = free cell
  std::size_t mask_ = 0;
  int shift_ = 64;
  [[no_unique_address]] Hash hash_;
};

}  // namespace ethsim
