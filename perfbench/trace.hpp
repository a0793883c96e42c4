// In-memory span recorder and counting sink for the traced benchmark run.
//
// Spans are opened and closed by the benchmark's own code around calls into
// each library layer, on the calling thread, in strict nesting order. Every
// span remembers its root (the outermost open span: "ckpt", "restore",
// "prune", ...) so a layer's time can be charged to the end-to-end operation
// that caused it. Counters are keyed the same way. Nothing is aggregated
// while the run measures; totals and self times are computed from the kept
// spans when it ends. Spans and counter increments go into buffers reserved
// up front, so recording makes no heap allocation while the run measures.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "numarck/io/durable_file.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* root = nullptr;
    const char* name = nullptr;
    std::size_t parent = kNoParent;
    double start = 0.0;
    double end = 0.0;
    double child = 0.0;  ///< time covered by direct children
  };
  struct Total {
    double inclusive_s = 0.0;
    double self_s = 0.0;
    std::size_t calls = 0;
  };
  /// (root, name) -> value.
  using Key = std::pair<std::string, std::string>;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  /// Capacity to reserve for a traced run; past it the buffers grow.
  static constexpr std::size_t kReserve = std::size_t{1} << 20;

  explicit Tracer(std::size_t capacity = 0) {
    spans_.reserve(capacity);
    counts_.reserve(capacity);
    open_.reserve(64);
  }

  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  void open(const char* name) {
    Span s;
    s.name = name;
    s.root = open_.empty() ? name : spans_[open_.front()].root;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start = now_s();
    open_.push_back(spans_.size());
    spans_.push_back(s);
  }

  void close() {
    Span& s = spans_[open_.back()];
    s.end = now_s();
    open_.pop_back();
    if (s.parent != kNoParent) spans_[s.parent].child += s.end - s.start;
  }

  /// Adds `value` to counter `name` under the currently open root ("-" when
  /// no span is open). A no-op while tracing is off.
  void add(const char* name, double value) {
    if (!on_) return;
    const char* root = open_.empty() ? "-" : spans_[open_.front()].root;
    counts_.push_back({root, name, value});
  }

  [[nodiscard]] std::map<Key, Total> totals() const {
    std::map<Key, Total> out;
    for (const Span& s : spans_) {
      Total& t = out[{s.root, s.name}];
      t.inclusive_s += s.end - s.start;
      t.self_s += s.end - s.start - s.child;
      ++t.calls;
    }
    return out;
  }

  [[nodiscard]] double counter(const std::string& root,
                               const std::string& name) const {
    double sum = 0.0;
    for (const Count& c : counts_) {
      if (root == c.root && name == c.name) sum += c.value;
    }
    return sum;
  }

  /// Writes every span as one JSON object per line (times in ms from the
  /// first span). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %lld, \"root\": \"%s\", "
                   "\"name\": \"%s\", \"start_ms\": %.6f, \"dur_ms\": %.6f, "
                   "\"self_ms\": %.6f}\n",
                   i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   s.root, s.name, (s.start - t0) * 1e3,
                   (s.end - s.start) * 1e3, (s.end - s.start - s.child) * 1e3);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Count {
    const char* root;
    const char* name;
    double value;
  };

  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<Count> counts_;
};

/// RAII span; free when tracing is off.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), on_(tracer.on()) {
    if (on_) tracer_.open(name);
  }
  ~Scope() {
    if (on_) tracer_.close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  bool on_;
};

/// ByteSink wrapper installed through StoreOptions::sink_factory in traced
/// passes: times every write and fsync as a span and counts calls and bytes,
/// split into container and manifest writes by path.
class CountingSink final : public numarck::io::ByteSink {
 public:
  CountingSink(std::unique_ptr<numarck::io::ByteSink> inner, bool manifest,
               Tracer& tracer)
      : inner_(std::move(inner)), manifest_(manifest), tracer_(tracer) {}

  void write(const void* data, std::size_t size) override {
    {
      Scope s(tracer_, "io.sink_write");
      inner_->write(data, size);
    }
    tracer_.add("io.sink_writes", 1);
    tracer_.add(manifest_ ? "io.manifest_bytes" : "io.container_bytes",
                static_cast<double>(size));
  }

  void sync() override {
    {
      Scope s(tracer_, "io.fsync");
      inner_->sync();
    }
    tracer_.add("io.fsyncs", 1);
  }

  void close() override { inner_->close(); }

 private:
  std::unique_ptr<numarck::io::ByteSink> inner_;
  bool manifest_;
  Tracer& tracer_;
};

}  // namespace perfbench
