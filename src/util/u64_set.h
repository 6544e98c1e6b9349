// Flat open-addressing set of uint64 keys — the ingest shards' per-round
// duplicate-nonce filter and the RoundBuffer's per-round identity set.
// Both know roughly how many keys a round brings, so they Reserve once
// instead of rehashing through every doubling.
//
// std::unordered_set spends the dedup budget on a pointer chase per probe
// (node allocation, bucket list walk). Report nonces are plain u64s that
// are only ever probed and inserted, never erased, and the whole set dies
// with the round — exactly the shape a linear-probing table with a
// power-of-two capacity handles in one or two cache lines per lookup.
// Keys are scattered with Mix64 so adversarially sequential nonces do not
// cluster; 0 is the empty-slot sentinel and gets a dedicated flag.
#ifndef LDPIDS_UTIL_U64_SET_H_
#define LDPIDS_UTIL_U64_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ldpids {

class U64Set {
 public:
  bool Contains(uint64_t x) const {
    if (x == 0) return has_zero_;
    if (slots_.empty()) return false;
    std::size_t i = static_cast<std::size_t>(Mix64(x)) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == x) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  // Inserts `x`; returns false (a no-op) if it was already present.
  bool Insert(uint64_t x) {
    if (x == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      ++count_;
      return true;
    }
    Reserve(count_ + 1);
    std::size_t i = static_cast<std::size_t>(Mix64(x)) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == x) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = x;
    ++count_;
    return true;
  }

  // Sizes the table so `n` keys fit without growing: at most one rehash,
  // and none when it already holds that many. Insert grows through it, one
  // doubling at a time.
  void Reserve(std::size_t n) {
    // At most 3/4 full; linear probing degrades fast beyond that.
    if (n * 4 <= slots_.size() * 3) return;
    std::size_t new_cap = 64;
    while (n * 4 > new_cap * 3) new_cap *= 2;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (uint64_t x : old) {
      if (x == 0) continue;
      std::size_t i = static_cast<std::size_t>(Mix64(x)) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = x;
    }
  }

  std::size_t size() const { return count_; }

 private:
  std::vector<uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;  // includes the zero key when present
  bool has_zero_ = false;
};

}  // namespace ldpids

#endif  // LDPIDS_UTIL_U64_SET_H_
