#include "span_log.h"

#include <cstdio>

namespace perfbench {

SpanLog::SpanLog(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Scopes close in reverse order of opening, so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Attr(int id, const std::string& key, double value) {
  spans_[static_cast<size_t>(id)].attrs.emplace_back(key, value);
}

SpanLog::Ledger SpanLog::RootLedger(int root) const {
  // Spans are stored in start order and children start after their
  // parent, so one forward pass from the root sees every descendant.
  std::vector<double> child_seconds(spans_.size(), 0.0);
  std::vector<bool> in_tree(spans_.size(), false);
  in_tree[static_cast<size_t>(root)] = true;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent < 0 || !in_tree[static_cast<size_t>(parent)]) continue;
    in_tree[i] = true;
    child_seconds[static_cast<size_t>(parent)] += spans_[i].seconds();
  }
  Ledger ledger;
  ledger.wall_s = spans_[static_cast<size_t>(root)].seconds();
  for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    const Span& span = spans_[i];
    ledger.self_s[span.name] += span.seconds() - child_seconds[i];
    for (const auto& [key, value] : span.attrs) ledger.attrs[key] += value;
  }
  return ledger;
}

std::vector<int> SpanLog::Roots(const std::string& name) const {
  std::vector<int> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].name == name) {
      roots.push_back(static_cast<int>(i));
    }
  }
  return roots;
}

std::string SpanLog::ToJson() const {
  std::string out = "{\"run_id\": \"" + run_id_ + "\", \"spans\": [";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"attrs\": {",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.start_s,
                  s.end_s);
    out += buf;
    for (size_t a = 0; a < s.attrs.size(); ++a) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", a == 0 ? "" : ", ",
                    s.attrs[a].first.c_str(), s.attrs[a].second);
      out += buf;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
