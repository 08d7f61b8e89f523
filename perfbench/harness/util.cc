#include "util.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "obs/json.h"
#include "obs/resource.h"

namespace perfbench {

void Digest::Add(std::string_view text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  // Unit separator, so ("ab","c") and ("a","bc") digest differently.
  hash_ ^= 0x1f;
  hash_ *= 1099511628211ULL;
}

void Digest::Add(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(std::string_view(buf));
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

double CalibrationMs() {
  // xorshift chain: every step depends on the last, so the loop can be
  // neither vectorised nor folded; ~20 ms on a current x86 core.
  auto start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double ms = SecondsSince(start) * 1000.0;
  // Keep the result observable.
  if (x == 0) std::fprintf(stderr, "calibration degenerate\n");
  return ms;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  return static_cast<double>(rlbench::obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

LayerTimer::LayerTimer(LayerLedger* ledger, const char* layer)
    : ledger_(ledger), layer_(layer) {
  if (ledger_ == nullptr) return;
  span_name_ = std::string("perfbench/") + layer;
  span_.emplace(span_name_.c_str());
  start_ = Clock::now();
}

LayerTimer::~LayerTimer() {
  if (ledger_ == nullptr) return;
  ledger_->Add(layer_, SecondsSince(start_));
  span_.reset();
}

void JsonObject::Key(const std::string& key) {
  if (body_.size() > 1) body_ += ",";
  body_ += rlbench::obs::JsonString(key) + ":";
}

JsonObject& JsonObject::Number(const std::string& key, double value) {
  Key(key);
  body_ += rlbench::obs::JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::String(const std::string& key, std::string_view value) {
  Key(key);
  body_ += rlbench::obs::JsonString(value);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::Numbers(const std::string& key,
                                const std::vector<double>& values,
                                int decimals) {
  Key(key);
  body_ += "[";
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ",";
    if (decimals >= 0) {
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, values[i]);
      body_ += buf;
    } else {
      body_ += rlbench::obs::JsonNumber(values[i]);
    }
  }
  body_ += "]";
  return *this;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
