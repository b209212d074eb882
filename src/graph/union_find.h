// Disjoint-set forest with union by size and path halving. Used for fast
// connected-component queries inside Monte-Carlo trials. Storage is 32-bit
// (two words per element) so the whole structure for a continent-scale
// network fits in a few cache lines, and reset() rewinds a warm instance to
// all-singletons without reallocating — the components kernel reuses one
// UnionFind across thousands of trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace solarnet::graph {

class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(std::size_t n) { reset(n); }

  // Re-initializes to n singleton sets, reusing existing storage when
  // capacity allows. Throws std::length_error when n exceeds 32-bit ids.
  void reset(std::size_t n);

  // The find/unite operations are defined inline: the Monte-Carlo kernels
  // call them hundreds of times per trial, and inlining the path-halving
  // loop into the caller is a measurable win at that call density.
  std::size_t find(std::size_t x) {
    if (x >= parent_.size()) throw std::out_of_range("UnionFind::find");
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  // Returns true if the sets were distinct (a merge happened).
  bool unite(std::size_t a, std::size_t b) {
    return unite_returning_size(a, b) != 0;
  }

  // Unites and returns the merged set's size, or 0 when a and b were
  // already together — one find pair total, where unite() + set_size()
  // would pay a second find. The sweep engine's resurrection walk tracks
  // the running largest component with this.
  std::size_t unite_returning_size(std::size_t a, std::size_t b) {
    auto ra = static_cast<std::uint32_t>(find(a));
    auto rb = static_cast<std::uint32_t>(find(b));
    if (ra == rb) return 0;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --sets_;
    return size_[ra];
  }

  // Adds w to the size of x's set and returns the new size. Sizes then
  // count weighted elements, which union by size handles unchanged: the
  // resurrection walk keeps one element per shared landing point and adds
  // each cable piece's single-cable nodes as weight.
  std::size_t add_size(std::size_t x, std::size_t w) {
    const std::size_t r = find(x);
    size_[r] += static_cast<std::uint32_t>(w);
    return size_[r];
  }

  bool connected(std::size_t a, std::size_t b) { return find(a) == find(b); }
  std::size_t set_size(std::size_t x) { return size_[find(x)]; }
  std::size_t set_count() const noexcept { return sets_; }
  std::size_t element_count() const noexcept { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t sets_ = 0;
};

}  // namespace solarnet::graph
