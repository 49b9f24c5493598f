// Flat clause container for hand-offs between layers (DESIGN.md §4e).
//
// One literal buffer plus the end offset of every clause; clause i reads
// as a std::span over its literals. Split children, checkpoints, shared
// clause batches and the solver's import queue all hold their clauses in
// blocks instead of a std::vector<cnf::Clause>, so a clause crossing a
// layer costs a copy of its literals, never a heap vector of its own.
// clear() keeps both buffers' capacity, so a long-lived buffer (a
// worker's exports, say) reuses its storage.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"

namespace gridsat::cnf {

class ClauseBlock {
 public:
  ClauseBlock() = default;
  /// Copy of a clause list (a formula's clauses, test fixtures).
  explicit ClauseBlock(std::span<const Clause> clauses) {
    std::size_t literals = 0;
    for (const Clause& c : clauses) literals += c.size();
    reserve(clauses.size(), literals);
    for (const Clause& c : clauses) push_back(c);
  }
  ClauseBlock(std::initializer_list<Clause> clauses)
      : ClauseBlock(std::span<const Clause>(clauses.begin(), clauses.size())) {}

  /// Number of clauses.
  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }
  /// Total literal slots over all clauses.
  [[nodiscard]] std::size_t num_literals() const noexcept {
    return lits_.size();
  }

  [[nodiscard]] std::span<const Lit> operator[](std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {lits_.data() + begin, ends_[i] - begin};
  }
  /// Every clause's literals back to back, in clause order (to fill
  /// clauses added by push_uninit).
  [[nodiscard]] std::span<Lit> literals() noexcept { return lits_; }

  /// Append a copy of `lits` as one clause; returns the stored copy
  /// (valid until the next append), e.g. to sort it in place.
  std::span<Lit> push_back(std::span<const Lit> lits) {
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ends_.push_back(lits_.size());
    return {lits_.data() + lits_.size() - lits.size(), lits.size()};
  }
  /// Append one clause of `len` placeholder literals for the caller to
  /// fill in (valid until the next append).
  std::span<Lit> push_uninit(std::size_t len) {
    lits_.resize(lits_.size() + len);
    ends_.push_back(lits_.size());
    return {lits_.data() + lits_.size() - len, len};
  }
  /// Append clauses [first, last) of `other`: two bulk copies.
  void append(const ClauseBlock& other, std::size_t first, std::size_t last) {
    if (first == last) return;
    const std::size_t from = first == 0 ? 0 : other.ends_[first - 1];
    const std::size_t shift = lits_.size() - from;
    lits_.insert(lits_.end(),
                 other.lits_.begin() + static_cast<std::ptrdiff_t>(from),
                 other.lits_.begin() +
                     static_cast<std::ptrdiff_t>(other.ends_[last - 1]));
    for (std::size_t i = first; i < last; ++i) {
      ends_.push_back(other.ends_[i] + shift);
    }
  }
  void append(const ClauseBlock& other) { append(other, 0, other.size()); }

  void reserve(std::size_t clauses, std::size_t literals) {
    ends_.reserve(clauses);
    lits_.reserve(literals);
  }
  /// Drop every clause, keeping the capacity.
  void clear() noexcept {
    lits_.clear();
    ends_.clear();
  }

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::span<const Lit>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::span<const Lit>;

    const_iterator() = default;
    const_iterator(const ClauseBlock* block, std::size_t i) noexcept
        : block_(block), i_(i) {}
    std::span<const Lit> operator*() const noexcept { return (*block_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    const ClauseBlock* block_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size()}; }

  /// Same clauses, in the same order, with the same literal order.
  friend bool operator==(const ClauseBlock&, const ClauseBlock&) = default;

 private:
  std::vector<Lit> lits_;
  /// ends_[i] is one past clause i's last literal in lits_.
  std::vector<std::size_t> ends_;
};

}  // namespace gridsat::cnf
