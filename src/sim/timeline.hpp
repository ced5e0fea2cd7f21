// Cycle-level timeline bookkeeping for the accelerator model.
//
// The simulator is transaction-level: each hardware module is a resource
// whose busy intervals are reserved in program order by the controller
// (Algorithm 1). Per-module busy cycles, utilization and a CSV trace fall
// out of the same records. A clocked PE-level systolic-array model
// (systolic_rtl.hpp) grounds the per-operation formulas used here.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "sim/op_label.hpp"

namespace tfacc {

using Cycle = std::int64_t;

/// One busy interval [start, end) of one module. The label is plain data:
/// a tuple over the owning Timeline's prefix table, rendered to text only
/// on demand (Timeline::label, write_csv).
struct Interval {
  Cycle start = 0;
  Cycle end = 0;
  OpLabel label;

  Cycle duration() const { return end - start; }
};

/// Busy-interval ledger of one hardware module (SA, Softmax, LayerNorm, ...).
/// Reservations are non-overlapping and issued in non-decreasing start order,
/// matching an in-order hardware pipeline. Created only by its Timeline,
/// whose label table its intervals' labels index.
class ModuleTimeline {
 public:
  ModuleTimeline(std::string name, LabelTable* labels)
      : name_(std::move(name)), labels_(labels) {}

  const std::string& name() const { return name_; }

  /// Reserve `duration` cycles starting no earlier than `earliest` and no
  /// earlier than the previous reservation's end. Returns the interval.
  /// `label` indexes the owning Timeline's label table.
  Interval reserve(Cycle earliest, Cycle duration, const OpLabel& label) {
    TFACC_CHECK_ARG_MSG(duration >= 0, "duration " << duration);
    const Cycle start = std::max(earliest, free_at_);
    const Interval iv{start, start + duration, label};
    free_at_ = iv.end;
    busy_ += duration;
    intervals_.push_back(iv);
    return iv;
  }
  /// Free-text variant: `text` becomes its own prefix in the table.
  Interval reserve(Cycle earliest, Cycle duration, std::string_view text) {
    OpLabel label;
    label.prefix = labels_->add({text});
    return reserve(earliest, duration, label);
  }

  /// Size the interval ledger for `n` more reservations.
  void reserve_intervals(std::size_t n) {
    intervals_.reserve(intervals_.size() + n);
  }

  /// First cycle at which a new reservation could start.
  Cycle free_at() const { return free_at_; }
  /// Total cycles this module was busy.
  Cycle busy_cycles() const { return busy_; }
  /// End of the last reservation (0 if none).
  Cycle end_time() const { return free_at_; }

  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  friend class Timeline;  // relinks labels_ on copy and move

  std::string name_;
  LabelTable* labels_;
  Cycle free_at_ = 0;
  Cycle busy_ = 0;
  std::vector<Interval> intervals_;
};

/// A set of module timelines forming one simulation run, plus the label
/// table their intervals index. Copying or moving a Timeline repoints its
/// modules at the destination's table.
class Timeline {
 public:
  Timeline() = default;
  Timeline(const Timeline& other);
  Timeline(Timeline&& other) noexcept;
  Timeline& operator=(const Timeline& other);
  Timeline& operator=(Timeline&& other) noexcept;

  /// Get or create the timeline of a module. The returned reference stays
  /// valid for the lifetime of the Timeline (deque storage — modules are
  /// held by long-lived scheduler objects).
  ModuleTimeline& module(const std::string& name);
  /// Const lookup that never creates a ledger: nullptr when the module was
  /// never scheduled. Report code must use this — module() would silently
  /// add empty ledgers for units that never ran, polluting write_csv and
  /// gantt output.
  const ModuleTimeline* find(const std::string& name) const;
  const std::deque<ModuleTimeline>& modules() const { return modules_; }

  /// Copy a graph's label prefixes into this timeline's table; returns the
  /// offset to add to their indices (schedule_ops does this once per graph).
  int add_labels(const LabelTable& labels) { return labels_.append(labels); }
  /// An interval's label, rendered.
  std::string label(const Interval& iv) const {
    return labels_.render(iv.label);
  }

  /// Latest end time across all modules (= total latency).
  Cycle end_time() const;

  /// Dump all intervals as CSV: module,start,end,label.
  void write_csv(std::ostream& os) const;

 private:
  void relink();

  std::deque<ModuleTimeline> modules_;
  LabelTable labels_;
};

}  // namespace tfacc
