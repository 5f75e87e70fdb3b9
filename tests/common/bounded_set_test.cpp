#include "common/bounded_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>

#include "common/random.hpp"
#include "common/types.hpp"

namespace ethsim {
namespace {

TEST(BoundedSet, InsertAndContains) {
  BoundedSet<int> set{4};
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(1));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.size(), 1u);
}

TEST(BoundedSet, EvictsOldestBeyondCapacity) {
  BoundedSet<int> set{3};
  set.Insert(1);
  set.Insert(2);
  set.Insert(3);
  set.Insert(4);  // evicts 1
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_TRUE(set.Contains(4));
  EXPECT_EQ(set.size(), 3u);
}

TEST(BoundedSet, ReinsertAfterEvictionSucceeds) {
  BoundedSet<int> set{2};
  set.Insert(1);
  set.Insert(2);
  set.Insert(3);  // evicts 1
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Contains(2));  // 2 evicted by the reinsertion
}

TEST(BoundedSet, WorksWithStrings) {
  BoundedSet<std::string> set{2};
  EXPECT_TRUE(set.Insert("block-a"));
  EXPECT_TRUE(set.Insert("block-b"));
  EXPECT_FALSE(set.Insert("block-a"));
  EXPECT_EQ(set.capacity(), 2u);
}

TEST(BoundedSet, CapacityOneDegeneratesGracefully) {
  BoundedSet<int> set{1};
  set.Insert(1);
  set.Insert(2);
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_EQ(set.size(), 1u);
}


// The deque + unordered_set implementation the flat ring replaced, kept as
// the reference model for the differential tests below.
template <typename T>
class ReferenceBoundedSet {
 public:
  explicit ReferenceBoundedSet(std::size_t capacity) : capacity_(capacity) {}

  bool Insert(const T& value) {
    if (!set_.insert(value).second) return false;
    order_.push_back(value);
    if (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  bool Contains(const T& value) const { return set_.contains(value); }
  std::size_t size() const { return set_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_set<T> set_;
  std::deque<T> order_;
};

constexpr std::size_t kCaps[] = {1, 2, 3, 17, 256, 1024};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// Drives BoundedSet and the reference with one random Insert/Contains stream
// over a universe of 2*cap+3 values (so about half the lookups hit and the
// set keeps evicting), comparing every return value and size(); then probes
// the whole universe.
template <typename T, typename Hash = std::hash<T>, typename MakeValue>
void ExpectMatchesReference(std::size_t cap, std::uint64_t seed,
                            MakeValue make) {
  SCOPED_TRACE(testing::Message() << "cap=" << cap << " seed=" << seed);
  BoundedSet<T, Hash> set{cap};
  ReferenceBoundedSet<T> reference{cap};
  Rng rng{seed};
  const std::uint64_t universe = 2 * cap + 3;
  const std::size_t ops = 20 * cap + 2000;
  for (std::size_t op = 0; op < ops; ++op) {
    const T value = make(rng.NextBounded(universe));
    if (rng.NextBool(0.5)) {
      ASSERT_EQ(set.Insert(value), reference.Insert(value)) << "op " << op;
    } else {
      ASSERT_EQ(set.Contains(value), reference.Contains(value)) << "op " << op;
    }
    ASSERT_EQ(set.size(), reference.size()) << "op " << op;
  }
  for (std::uint64_t k = 0; k < universe; ++k)
    ASSERT_EQ(set.Contains(make(k)), reference.Contains(make(k))) << k;
}

template <typename T, typename Hash = std::hash<T>, typename MakeValue>
void ExpectMatchesReferenceAtEveryCap(MakeValue make) {
  for (const std::size_t cap : kCaps)
    for (const std::uint64_t seed : kSeeds)
      ExpectMatchesReference<T, Hash>(cap, seed, make);
}

TEST(BoundedSetDifferential, IntMatchesReference) {
  ExpectMatchesReferenceAtEveryCap<int>(
      [](std::uint64_t k) { return static_cast<int>(k); });
}

TEST(BoundedSetDifferential, Uint32MatchesReference) {
  // Keys near the top of the uint32 range.
  ExpectMatchesReferenceAtEveryCap<std::uint32_t>([](std::uint64_t k) {
    return static_cast<std::uint32_t>(4'000'000'000u + k);
  });
}

TEST(BoundedSetDifferential, Hash32MatchesReference) {
  // Pairs of hashes share their first 8 bytes (std::hash<Hash32> reads only
  // those) and differ in the last byte, so every pair collides in the index
  // and equality must look at the whole hash.
  ExpectMatchesReferenceAtEveryCap<Hash32>([](std::uint64_t k) {
    Hash32 hash;
    std::uint64_t word = (k / 2 + 1) * 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < 8; ++i, word >>= 8)
      hash.bytes[i] = static_cast<std::uint8_t>(word);
    hash.bytes[31] = static_cast<std::uint8_t>(k % 2);
    return hash;
  });
}

// Degenerate hash functors: eight home cells, or a single one, so probe runs
// grow to a large share of the population. The single home lies at about
// 0.85 of every table size, so its run crosses the end of the index and
// backward-shift deletion moves cells across the wrap.
struct EightWayHash {
  std::size_t operator()(int value) const {
    return static_cast<std::size_t>(value) % 8;
  }
};
struct ConstantHash {
  std::size_t operator()(int) const { return 3; }
};

TEST(BoundedSetDifferential, DegenerateHashMatchesReference) {
  const auto make = [](std::uint64_t k) { return static_cast<int>(k); };
  ExpectMatchesReferenceAtEveryCap<int, EightWayHash>(make);
  ExpectMatchesReferenceAtEveryCap<int, ConstantHash>(make);
}

}  // namespace
}  // namespace ethsim
