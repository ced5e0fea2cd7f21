// Op labels as plain data. A step ledger names every op ("dec0.self.head1.
// slot3.QKt", "sub2.G5", "s17.enc0.c1.prefetch"), and those names feed the
// canonical ledger hash, the CSV trace and every verifier diagnostic. Built
// as strings, they cost several heap allocations per op on every step; here
// a label is a small tuple over a shared table of prefix strings (one per
// sublayer), rendered to text only when a hash, a diagnostic, a CSV row or a
// trace needs it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tfacc {

/// What an op computes: the last component of its label.
enum class OpKind : std::uint8_t {
  kText,  ///< free text: the label is its prefix alone
  kQWq,
  kKWk,
  kVWv,
  kQKt,
  kSoftmax,
  kAV,
  kG,  ///< output column block "G<block>"
  kH,  ///< FFN hidden column block "H<block>"
  kLayerNorm,
  kPrefetch,  ///< a sublayer's initial weight-tile load
};

/// An op label as a tuple. It renders as
///
///   prefix ["head" head "."] ["slot" slot "."] kind-text [block]
///
/// where each bracketed part appears only when its field is >= 0, e.g.
/// prefix "dec0.self.", head 1, slot 3, kQKt renders
/// "dec0.self.head1.slot3.QKt", and prefix "sub2.", kG, block 5 renders
/// "sub2.G5" — exactly the text the schedule builders once concatenated.
struct OpLabel {
  std::int32_t prefix = 0;  ///< index into the owning LabelTable
  std::int32_t head = -1;
  std::int32_t slot = -1;
  std::int32_t block = -1;
  OpKind kind = OpKind::kText;
};

/// The prefix strings OpLabel::prefix indexes, stored back to back in one
/// buffer: one per sublayer of a step ledger ("", "sub3.", "s17.enc0.c1."),
/// plus one per free-text label. Append-only, so an index stays valid for
/// the table's lifetime.
class LabelTable {
 public:
  /// Append the concatenation of `parts` as a new prefix; returns its index.
  int add(std::initializer_list<std::string_view> parts);
  /// Append every prefix of `other`, in order; returns the index the first
  /// one got (add it to `other`'s indices to address them here).
  int append(const LabelTable& other);

  int size() const { return static_cast<int>(ends_.size()); }
  std::string_view prefix(int id) const;

  /// Render `label` into `out`, writing at most out.size() chars, and return
  /// the rendered length. A result larger than out.size() means the text
  /// was cut: render again into a larger buffer (or as a string).
  std::size_t render(const OpLabel& label, std::span<char> out) const;
  /// Render `label` as a string.
  std::string render(const OpLabel& label) const;

 private:
  std::string chars_;
  std::vector<std::uint32_t> ends_;  ///< prefix i ends at chars_[ends_[i]]
};

}  // namespace tfacc
