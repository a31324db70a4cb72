// Shared helpers for the experiment harnesses: wall-clock timing of
// closures, a fixed-width table printer for paper-style rows, a
// machine-readable JSON result sink (docs/PERF.md), and a fast IB-mRSA
// system factory for benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bigint/kernels/kernels.h"
#include "hash/drbg.h"
#include "mediated/ib_mrsa.h"

// Short git revision stamped into every JSON report so result files can
// be matched to the code that produced them; the bench CMakeLists
// defines it from `git rev-parse --short HEAD`.
#ifndef MEDCRYPT_GIT_REV
#define MEDCRYPT_GIT_REV "unknown"
#endif

namespace medcrypt::benchutil {

/// Mean wall-clock microseconds of `fn` over `iters` runs (one warmup).
template <typename Fn>
double time_us(int iters, Fn&& fn) {
  fn();  // warmup
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

/// Iteration count for table benches: `dflt` unless the
/// MEDCRYPT_BENCH_ITERS environment variable overrides it (the CI
/// bench-smoke job sets it to 1 so every row still executes once).
inline int bench_iters(int dflt) {
  const char* env = std::getenv("MEDCRYPT_BENCH_ITERS");
  if (env == nullptr) return dflt;
  const int v = std::atoi(env);
  return v >= 1 ? v : dflt;
}

/// The host's CPU model from /proc/cpuinfo ("unknown" where there is
/// none), JSON-escaped.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) break;
    std::string out;
    for (const char c : line.substr(colon + 2)) {  // past ": "
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  return "unknown";
}

/// Collects named timing results and writes them as BENCH_<tag>.json in
/// the working directory: one object per op with its median time in
/// nanoseconds and the iteration count, plus the git revision and the
/// host the numbers came from (CPU model, hardware thread count, the
/// active Montgomery kernel tier). The format is the contract for
/// cross-revision comparisons — see docs/PERF.md for how the numbers
/// are meant to be consumed.
class JsonReport {
 public:
  explicit JsonReport(std::string tag) : tag_(std::move(tag)) {}
  ~JsonReport() { write(); }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Records one result; a repeated name overwrites the earlier entry
  /// (so an aggregate re-report of the same op wins). `unit` defaults
  /// to nanoseconds; non-timing benches pass e.g. "bytes" or
  /// "tokens_per_s" and the entry is emitted as value/unit instead of
  /// median_ns.
  void add(const std::string& name, double value, long iterations,
           std::string unit = "ns") {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.iterations = iterations;
        e.unit = std::move(unit);
        return;
      }
    }
    entries_.push_back(Entry{name, value, iterations, std::move(unit)});
  }

  /// Times `fn` like time_us() but per-sample, records the MEDIAN under
  /// `name`, and returns the median in microseconds — a drop-in for
  /// time_us() in table benches that should also feed the JSON report.
  template <typename Fn>
  double time_us(const std::string& name, int iters, Fn&& fn) {
    fn();  // warmup
    std::vector<double> samples_ns;
    samples_ns.reserve(static_cast<std::size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      samples_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::sort(samples_ns.begin(), samples_ns.end());
    const std::size_t n = samples_ns.size();
    const double median_ns = (n % 2 == 1)
                                 ? samples_ns[n / 2]
                                 : (samples_ns[n / 2 - 1] + samples_ns[n / 2]) / 2.0;
    add(name, median_ns, iters);
    return median_ns / 1000.0;
  }

  /// Writes BENCH_<tag>.json; called automatically on destruction.
  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + tag_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n"
                 "  \"cpu_model\": \"%s\",\n  \"nproc\": %u,\n"
                 "  \"kernel_tier\": \"%s\",\n  \"results\": [\n",
                 tag_.c_str(), MEDCRYPT_GIT_REV, cpu_model().c_str(),
                 std::thread::hardware_concurrency(),
                 bigint::kernels::active().name);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const char* comma = i + 1 < entries_.size() ? "," : "";
      if (e.unit == "ns") {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"median_ns\": %.1f, "
                     "\"iterations\": %ld}%s\n",
                     e.name.c_str(), e.value, e.iterations, comma);
      } else {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"value\": %.1f, "
                     "\"unit\": \"%s\", \"iterations\": %ld}%s\n",
                     e.name.c_str(), e.value, e.unit.c_str(), e.iterations,
                     comma);
      }
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu results, rev %s)\n", path.c_str(),
                entries_.size(), MEDCRYPT_GIT_REV);
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    long iterations = 0;
    std::string unit = "ns";
  };

  std::string tag_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// Fixed-width markdown-ish table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    print_row(headers_, widths);
    std::string sep;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      sep += "|";
      sep += std::string(widths[i] + 2, '-');
    }
    std::printf("%s|\n", sep.c_str());
    for (const auto& row : rows_) print_row(row, widths);
  }

 private:
  static void print_row(const std::vector<std::string>& row,
                        const std::vector<std::size_t>& widths) {
    std::string line;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      line += "| ";
      line += cell;
      line += std::string(widths[i] - cell.size() + 1, ' ');
    }
    std::printf("%s|\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_us(double us) {
  char buf[64];
  if (us >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", us);
  }
  return buf;
}

inline std::string fmt_count(std::uint64_t v) { return std::to_string(v); }

/// IB-mRSA system for benches: paper-size 1024-bit modulus. Safe-prime
/// generation at this size takes ~20 s, so benches use ordinary primes
/// and retry setup until the bench identities' exponents are invertible
/// (exactly the failure safe primes exist to rule out; runtime costs of
/// the resulting system are identical).
inline mediated::IbMRsaSystem bench_mrsa_system(
    RandomSource& rng, const std::vector<std::string>& identities) {
  for (;;) {
    mediated::IbMRsaSystem system(
        mediated::IbMRsaSystem::Options{1024, 160, /*safe_primes=*/false}, rng);
    try {
      for (const auto& id : identities) (void)system.full_exponent(id);
      return system;
    } catch (const Error&) {
      // some e_ID shared a factor with phi(n); regenerate the modulus
    }
  }
}

}  // namespace medcrypt::benchutil
