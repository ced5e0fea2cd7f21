#include "sim/op_label.hpp"

#include <algorithm>
#include <charconv>

#include "common/check.hpp"

namespace tfacc {

namespace {

std::string_view kind_text(OpKind kind) {
  switch (kind) {
    case OpKind::kText:
      return "";
    case OpKind::kQWq:
      return "QWq";
    case OpKind::kKWk:
      return "KWk";
    case OpKind::kVWv:
      return "VWv";
    case OpKind::kQKt:
      return "QKt";
    case OpKind::kSoftmax:
      return "softmax";
    case OpKind::kAV:
      return "AV";
    case OpKind::kG:
      return "G";
    case OpKind::kH:
      return "H";
    case OpKind::kLayerNorm:
      return "LayerNorm";
    case OpKind::kPrefetch:
      return "prefetch";
  }
  TFACC_CHECK(false);
  return "";
}

/// Writes rendered pieces into a bounded buffer and counts the full length,
/// including whatever did not fit.
struct BoundedSink {
  std::span<char> out;
  std::size_t len = 0;

  void put(std::string_view piece) {
    if (len < out.size())
      std::copy_n(piece.data(), std::min(piece.size(), out.size() - len),
                  out.data() + len);
    len += piece.size();
  }
};

struct StringSink {
  std::string& out;

  void put(std::string_view piece) { out.append(piece); }
};

template <class Sink>
void render_pieces(std::string_view prefix, const OpLabel& label, Sink& sink) {
  char digits[16];
  const auto put_int = [&](std::int32_t v) {
    const auto res = std::to_chars(digits, digits + sizeof digits, v);
    sink.put(std::string_view(digits, static_cast<std::size_t>(
                                          res.ptr - digits)));
  };
  sink.put(prefix);
  if (label.head >= 0) {
    sink.put("head");
    put_int(label.head);
    sink.put(".");
  }
  if (label.slot >= 0) {
    sink.put("slot");
    put_int(label.slot);
    sink.put(".");
  }
  sink.put(kind_text(label.kind));
  if (label.block >= 0) put_int(label.block);
}

}  // namespace

int LabelTable::add(std::initializer_list<std::string_view> parts) {
  for (const std::string_view part : parts) chars_.append(part);
  ends_.push_back(static_cast<std::uint32_t>(chars_.size()));
  return size() - 1;
}

int LabelTable::append(const LabelTable& other) {
  const int base = size();
  const auto shift = static_cast<std::uint32_t>(chars_.size());
  chars_.append(other.chars_);
  for (const std::uint32_t end : other.ends_) ends_.push_back(shift + end);
  return base;
}

std::string_view LabelTable::prefix(int id) const {
  TFACC_CHECK_ARG_MSG(id >= 0 && id < size(),
                      "label prefix " << id << " not in a table of "
                                      << size());
  const auto i = static_cast<std::size_t>(id);
  const std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
  return std::string_view(chars_).substr(begin, ends_[i] - begin);
}

std::size_t LabelTable::render(const OpLabel& label,
                               std::span<char> out) const {
  BoundedSink sink{out, 0};
  render_pieces(prefix(label.prefix), label, sink);
  return sink.len;
}

std::string LabelTable::render(const OpLabel& label) const {
  std::string text;
  StringSink sink{text};
  render_pieces(prefix(label.prefix), label, sink);
  return text;
}

}  // namespace tfacc
