// Block Control: per-bank idleness detection (paper Fig. 1).
//
// Hardware view: one saturating counter per bank, incremented on every
// cycle the bank's 1-hot select line is 0, reset on access; when a counter
// saturates at the breakeven time, its terminal-count signal puts the bank
// into the low-power state, and the next access wakes it.
//
// Model view: with one access per cycle, a bank's behaviour is fully
// determined by the gaps between its accesses, so we track per-bank idle
// intervals in O(1) per access and derive sleep residency, sleep episodes
// (= Vdd transitions) and the paper's "useful idleness" metrics exactly.
// The SaturatingCounter below mirrors the hardware bit-level semantics and
// is cross-checked against the interval arithmetic in the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace pcal {

/// Bit-accurate model of one Block Control counter (5-6 bits in the paper).
class SaturatingCounter {
 public:
  explicit SaturatingCounter(std::uint64_t saturation)
      : saturation_(saturation) {
    PCAL_ASSERT(saturation > 0);
  }

  /// Clock edge: `accessed` is the bank's 1-hot select line this cycle.
  void tick(bool accessed) {
    if (accessed)
      value_ = 0;
    else if (value_ < saturation_)
      ++value_;
  }

  /// Terminal count: asserted when the counter has saturated.
  bool terminal() const { return value_ >= saturation_; }

  std::uint64_t value() const { return value_; }
  std::uint64_t saturation() const { return saturation_; }

 private:
  std::uint64_t saturation_;
  std::uint64_t value_ = 0;
};

/// Per-bank activity bookkeeping for the whole partitioned cache.
///
/// State is kept as flat struct-of-arrays columns (`next_free_[]`,
/// `accesses_[]`, `intervals_[]`), so the batched backend hot loops touch
/// contiguous memory; the per-bank query API below is a view over those
/// columns and is unchanged.
class BlockControl {
 public:
  /// `breakeven_cycles`: idle cycles before a bank is put to sleep.
  BlockControl(std::uint64_t num_banks, std::uint64_t breakeven_cycles);

  /// Records that `bank` is accessed at `cycle`.  Cycles must be
  /// non-decreasing; exactly one bank is accessed per cycle.
  void on_access(std::uint64_t bank, std::uint64_t cycle) {
    PCAL_ASSERT_MSG(!finished_, "BlockControl already finished");
    PCAL_ASSERT_MSG(bank < next_free_.size(), "bank out of range");
    PCAL_ASSERT_MSG(cycle >= last_cycle_, "cycles must be non-decreasing");
    PCAL_ASSERT_MSG(cycle >= next_free_[bank],
                    "bank accessed twice in one cycle");
    record_access(bank, cycle);
  }

  /// on_access without the per-access invariant checks: the batched hot
  /// path, where the caller asserts once per batch and its monotonically
  /// advancing cycle counter guarantees the invariants by construction.
  void record_access(std::uint64_t bank, std::uint64_t cycle) {
    last_cycle_ = cycle;
    intervals_[bank].add_interval(cycle - next_free_[bank]);
    next_free_[bank] = cycle + 1;
    ++accesses_[bank];
  }

  /// Closes the trailing idle intervals at the end of simulation
  /// (`end_cycle` = one past the last simulated cycle).  Must be called
  /// before reading the statistics.
  void finish(std::uint64_t end_cycle);

  /// True iff the bank would be in the low-power state at `cycle` (its
  /// idle counter has saturated).
  bool is_sleeping(std::uint64_t bank, std::uint64_t cycle) const {
    const std::uint64_t nf = at(bank);
    // Sleeping iff the bank has been idle for more than `breakeven_`
    // cycles: the counter starts at the first idle cycle (next_free) and
    // saturates after breakeven_ increments.
    return cycle >= nf && (cycle - nf) >= breakeven_;
  }

  /// Idle cycles the bank has accumulated by `cycle` since its last
  /// access (0 while it is still busy).  This is what lets the timing
  /// core classify a wakeup's depth: gap >= the gate threshold means the
  /// unit had already power-gated, a shorter gap means it was drowsy.
  std::uint64_t idle_gap(std::uint64_t bank, std::uint64_t cycle) const {
    const std::uint64_t nf = at(bank);
    return cycle >= nf ? cycle - nf : 0;
  }

  /// First cycle at which `bank` is free again (one past its last
  /// access) — the raw column behind is_sleeping/idle_gap, exposed so
  /// batched backends can derive gap, wake depth and sleep state from
  /// one subtraction.  No bounds check.
  std::uint64_t next_free(std::uint64_t bank) const {
    return next_free_[bank];
  }

  std::uint64_t num_banks() const { return next_free_.size(); }
  std::uint64_t breakeven_cycles() const { return breakeven_; }
  bool finished() const { return finished_; }

  // ---- per-bank statistics (valid after finish()) ----

  std::uint64_t accesses(std::uint64_t bank) const;
  /// Cycles spent in the low-power state.
  std::uint64_t sleep_cycles(std::uint64_t bank) const;
  /// Number of sleep episodes == number of wake transitions.
  std::uint64_t sleep_episodes(std::uint64_t bank) const;
  /// Time-weighted useful idleness (sleep residency / total time).
  double sleep_residency(std::uint64_t bank, std::uint64_t total_cycles) const;
  /// Count-weighted useful idleness (share of idle intervals > breakeven).
  double useful_idleness_count(std::uint64_t bank) const;
  const IntervalAccumulator& intervals(std::uint64_t bank) const;

 private:
  /// Bounds-checked read of the next_free column (the query-API view).
  std::uint64_t at(std::uint64_t bank) const {
    PCAL_ASSERT_MSG(bank < next_free_.size(), "bank out of range");
    return next_free_[bank];
  }

  // SoA columns, one entry per bank.
  std::vector<std::uint64_t> next_free_;  // first cycle after last access
  std::vector<std::uint64_t> accesses_;
  std::vector<IntervalAccumulator> intervals_;
  std::uint64_t breakeven_;
  std::uint64_t last_cycle_ = 0;
  bool finished_ = false;
};

}  // namespace pcal
