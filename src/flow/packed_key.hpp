#pragma once
// Bit-packed product-state keys and their flat open-addressing interner.
//
// A product state of U = F1 ||| ... ||| Fk is a tuple of k component flow
// states. Materializing one heap std::vector<StateId> per node (plus an
// unordered_map node table full of pointer-chasing buckets) dominates both
// the memory footprint and the build time of InterleavedFlow once instance
// counts grow. Instead each component i is given ceil(log2 |S_i|) bits
// (at least one) and the tuple is packed into consecutive 64-bit words —
// one word covers 16+ components for typical flows; wider tuples spill
// into additional words, components never straddling a word boundary.
// Keys live contiguously in one flat array indexed by NodeId, and the
// node table is a power-of-two open-addressing slot vector of NodeIds
// that compares against that array — no per-node allocation anywhere.

#include <cstddef>
#include <cstdint>
#include <bit>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "flow/types.hpp"

namespace tracesel::flow {

/// Packs/unpacks component-state tuples into fixed-width word arrays.
class KeyCodec {
 public:
  KeyCodec() = default;

  explicit KeyCodec(const std::vector<IndexedFlow>& instances) {
    comps_.reserve(instances.size());
    std::uint32_t word = 0;
    std::uint32_t bit = 0;
    for (const IndexedFlow& inst : instances) {
      const std::uint32_t ns = inst.flow->num_states();
      const std::uint32_t bits =
          ns <= 1 ? 1u : static_cast<std::uint32_t>(std::bit_width(ns - 1));
      if (bit + bits > 64) {  // wide-key fallback: spill to the next word
        ++word;
        bit = 0;
      }
      const std::uint64_t mask =
          bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
      comps_.push_back(Component{word, bit, mask});
      bit += bits;
    }
    words_ = word + 1;
  }

  std::size_t components() const { return comps_.size(); }
  /// 64-bit words per packed key (1 unless the tuple needs > 64 bits).
  std::size_t words() const { return words_; }

  void encode(const StateId* tuple, std::uint64_t* out) const {
    for (std::size_t w = 0; w < words_; ++w) out[w] = 0;
    for (std::size_t i = 0; i < comps_.size(); ++i)
      out[comps_[i].word] |= static_cast<std::uint64_t>(tuple[i])
                             << comps_[i].bit;
  }

  void decode(const std::uint64_t* in, StateId* tuple) const {
    for (std::size_t i = 0; i < comps_.size(); ++i)
      tuple[i] = static_cast<StateId>((in[comps_[i].word] >> comps_[i].bit) &
                                      comps_[i].mask);
  }

  StateId component(const std::uint64_t* in, std::size_t i) const {
    return static_cast<StateId>((in[comps_[i].word] >> comps_[i].bit) &
                                comps_[i].mask);
  }

  /// Writes `in` with component i replaced by `s` to `out`: the key of a
  /// product successor that moved only component i, in one field edit
  /// instead of a decode/encode round trip.
  void with_component(const std::uint64_t* in, std::size_t i, StateId s,
                      std::uint64_t* out) const {
    for (std::size_t w = 0; w < words_; ++w) out[w] = in[w];
    const Component& c = comps_[i];
    out[c.word] = (out[c.word] & ~(c.mask << c.bit)) |
                  (static_cast<std::uint64_t>(s) << c.bit);
  }

 private:
  struct Component {
    std::uint32_t word = 0;
    std::uint32_t bit = 0;
    std::uint64_t mask = 0;
  };
  std::vector<Component> comps_;
  std::size_t words_ = 1;
};

/// Flat open-addressing table interning packed keys into dense NodeIds.
/// Key storage is one contiguous array (NodeId * words per key); the hash
/// table stores NodeIds only, so growth rehashes 4 bytes per node.
class KeyInterner {
 public:
  KeyInterner() = default;

  explicit KeyInterner(std::size_t words) : words_(words) { rehash(1024); }

  std::size_t size() const { return count_; }

  /// Sizes the table and the key storage for `n` keys up front.
  void reserve(std::size_t n) {
    keys_.reserve(n * words_);
    std::size_t cap = slots_.size();
    while ((n + 1) * 10 >= cap * 7) cap *= 2;
    if (cap != slots_.size()) rehash(cap);
  }

  /// Total slot inspections across intern() calls — the obs layer
  /// reports this as "interleave.interner.probes" (probes/lookup ≈ 1 means
  /// the table is healthy).
  std::uint64_t probes() const { return probes_; }

  const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + static_cast<std::size_t>(id) * words_;
  }

  /// Returns the id of `k`, inserting it if new (`inserted` reports which).
  std::uint32_t intern(const std::uint64_t* k, bool& inserted) {
    if ((count_ + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t s = probe_start(k);
    for (;; s = (s + 1) & mask_) {
      ++probes_;
      const std::uint32_t id = slots_[s];
      if (id == kInvalidNode) break;
      if (equal(key(id), k)) {
        inserted = false;
        return id;
      }
    }
    const std::uint32_t id = static_cast<std::uint32_t>(count_++);
    slots_[s] = id;
    keys_.insert(keys_.end(), k, k + words_);
    inserted = true;
    return id;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t probe_start(const std::uint64_t* k) const {
    std::uint64_t h = 0x2545f4914f6cdd1dull;
    for (std::size_t w = 0; w < words_; ++w) h = mix(h ^ k[w]);
    return static_cast<std::size_t>(h) & mask_;
  }

  bool equal(const std::uint64_t* a, const std::uint64_t* b) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (a[w] != b[w]) return false;
    return true;
  }

  void rehash(std::size_t cap) {
    slots_.assign(cap, kInvalidNode);
    mask_ = cap - 1;
    for (std::uint32_t id = 0; id < count_; ++id) {
      std::size_t s = probe_start(key(id));
      while (slots_[s] != kInvalidNode) s = (s + 1) & mask_;
      slots_[s] = id;
    }
  }

  std::size_t words_ = 1;
  std::vector<std::uint64_t> keys_;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace tracesel::flow
