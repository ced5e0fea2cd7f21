#include "sim/timeline.hpp"

#include <algorithm>
#include <ostream>

namespace tfacc {

Timeline::Timeline(const Timeline& other)
    : modules_(other.modules_), labels_(other.labels_) {
  relink();
}

Timeline::Timeline(Timeline&& other) noexcept
    : modules_(std::move(other.modules_)), labels_(std::move(other.labels_)) {
  relink();
}

Timeline& Timeline::operator=(const Timeline& other) {
  if (this != &other) {
    modules_ = other.modules_;
    labels_ = other.labels_;
    relink();
  }
  return *this;
}

Timeline& Timeline::operator=(Timeline&& other) noexcept {
  if (this != &other) {
    modules_ = std::move(other.modules_);
    labels_ = std::move(other.labels_);
    relink();
  }
  return *this;
}

void Timeline::relink() {
  for (ModuleTimeline& m : modules_) m.labels_ = &labels_;
}

ModuleTimeline& Timeline::module(const std::string& name) {
  for (auto& m : modules_)
    if (m.name() == name) return m;
  modules_.emplace_back(name, &labels_);
  return modules_.back();
}

const ModuleTimeline* Timeline::find(const std::string& name) const {
  for (const auto& m : modules_)
    if (m.name() == name) return &m;
  return nullptr;
}

Cycle Timeline::end_time() const {
  Cycle end = 0;
  for (const auto& m : modules_) end = std::max(end, m.end_time());
  return end;
}

void Timeline::write_csv(std::ostream& os) const {
  os << "module,start,end,label\n";
  for (const auto& m : modules_)
    for (const auto& iv : m.intervals())
      os << m.name() << ',' << iv.start << ',' << iv.end << ','
         << labels_.render(iv.label) << '\n';
}

}  // namespace tfacc
