// Exact (value, PE) first-delivery tracking for the input-residency rule.
//
// The compiled evaluator, the reference oracles (tests/reference), and
// the executing machine all share one pricing rule: an input value is routed to a consumer PE
// once, then repeat uses on that PE are local SRAM reads.  They used to
// track delivery with a packed `value_index * num_pes + pe` uint64 key,
// which silently wraps once value_index exceeds 2^64 / num_pes and then
// aliases distinct (value, PE) pairs — a repeat-use SRAM price quoted
// for a value that was never delivered.  DeliveredSet keys on the pair
// itself: the hash is only a distribution hint, equality is what decides
// membership, so no spec size can alias.
//
// The compiled evaluator (fm/compiled.hpp) does not use this type: its
// EvalContext assigns each input value a dense ordinal at compile time
// and stamps an epoch table, which is both faster and structurally
// immune to the same overflow.  This set is the general-purpose variant
// for the GridMachine and the reference oracles, which walk closures
// over a sparse, unbounded value index space.
#pragma once

#include <cstdint>
#include <unordered_set>

namespace harmony::fm {

class DeliveredSet {
 public:
  /// True exactly the first time the (value_index, pe) pair is seen.
  bool first_delivery(std::int64_t value_index, std::size_t pe) {
    return seen_.insert(Key{value_index, static_cast<std::uint32_t>(pe)})
        .second;
  }

 private:
  struct Key {
    std::int64_t value;
    std::uint32_t pe;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // SplitMix64 finalizer over both fields; collisions here only cost
      // probe time, never correctness.
      auto z = static_cast<std::uint64_t>(k.value) ^
               (static_cast<std::uint64_t>(k.pe) + 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };
  std::unordered_set<Key, KeyHash> seen_;
};

}  // namespace harmony::fm
