#include "spans.hpp"

namespace xlpbench {

namespace {
thread_local std::vector<long> t_open;  // indices of this thread's open spans
}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

long SpanRecorder::begin(const char* name, std::string request_id) {
  Record record;
  record.name = name;
  record.request_id = std::move(request_id);
  record.parent = t_open.empty() ? -1 : t_open.back();
  record.start_s = now();
  long index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<long>(records_.size());
    records_.push_back(std::move(record));
  }
  t_open.push_back(index);
  return index;
}

void SpanRecorder::end(long index) {
  const double stop = now();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end_s = stop;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0)
      child_time[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& t = out[r.name];
    ++t.count;
    t.inclusive_s += r.end_s - r.start_s;
    t.self_s += r.end_s - r.start_s - child_time[i];
  }
  return out;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
}

xlp::obs::Json SpanRecorder::to_json() const {
  using xlp::obs::Json;
  Json spans = Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Record& r : records_) {
      Json span = Json::object()
                      .set("name", r.name)
                      .set("parent", r.parent)
                      .set("start_us", r.start_s * 1e6)
                      .set("end_us", r.end_s * 1e6);
      if (!r.request_id.empty()) span.set("request_id", r.request_id);
      spans.push(std::move(span));
    }
  }
  Json layers = Json::object();
  for (const auto& [name, t] : totals())
    layers.set(name, Json::object()
                         .set("count", t.count)
                         .set("inclusive_ms", t.inclusive_s * 1e3)
                         .set("self_ms", t.self_s * 1e3));
  return Json::object().set("spans", std::move(spans)).set("layers",
                                                           std::move(layers));
}

}  // namespace xlpbench
