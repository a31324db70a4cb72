// medbench: the end-to-end and per-layer benchmark of medcrypt's
// mediated schemes. Usually started through medbench/run.py, which
// builds it; see README.md.
//
//   medbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--git-rev <rev>] [--src-digest <hex>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "bigint/kernels/kernels.h"

#ifndef MEDBENCH_BUILD_TYPE
#define MEDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace medbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Context {
  std::vector<std::pair<std::string, std::string>> fields;
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      s += (i ? ", \"" : "\"") + fields[i].first + "\": \"" +
           json_escape(fields[i].second) + "\"";
    }
    return s + "}";
  }
};

std::string metrics_json(const std::vector<Metric>& ms, bool with_detail) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_detail) {
      s += ", \"samples\": " + std::to_string(ms[i].samples) + ", \"note\": \"" +
           json_escape(ms[i].note) + "\"";
    }
    s += "}";
  }
  return s + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %14.6g %-6s n=%-7zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "medbench: %s\nusage: medbench --workload <mail_uniform|sign_zipf|"
               "revocation_churn> --seed <n> --seconds <1..60> --trace <0|1> "
               "[--out-dir <dir>] [--git-rev <rev>] [--src-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        o.seconds = std::stoi(val);
      } else if (arg == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (arg == "--out-dir") {
        o.out_dir = val;
      } else if (arg == "--git-rev") {
        o.git_rev = val;
      } else if (arg == "--src-digest") {
        o.src_digest = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end()) {
    return usage(("unknown workload " + o.workload).c_str());
  }
  if (o.seconds < 1 || o.seconds > 60) return usage("--seconds must be 1..60");

  Context ctx;
  ctx.fields = {{"workload", o.workload},
                {"seed", std::to_string(o.seed)},
                {"seconds", std::to_string(o.seconds)},
                {"trace", o.trace ? "1" : "0"},
                {"git_rev", o.git_rev.empty() ? "none" : o.git_rev},
                {"src_digest", o.src_digest.empty() ? "none" : o.src_digest},
                {"cpu_model", cpu_model()},
                {"nproc", std::to_string(std::thread::hardware_concurrency())},
                {"kernel_tier", medcrypt::bigint::kernels::active().name},
                {"build_type", MEDBENCH_BUILD_TYPE},
                {"params", "sec80"}};
  std::printf("context %s\n", ctx.json().c_str());
  std::fflush(stdout);

  RunResult r;
  try {
    run_workload(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "medbench: run aborted: %s\n", e.what());
    return 1;
  }

  std::printf("phases (s):");
  for (const auto& [name, s] : r.phases) std::printf(" %s=%.3f", name.c_str(), s);
  std::printf("\n");
  print_table("end-to-end", r.end_to_end);
  print_table("by operation", r.detail);
  if (o.trace) print_table("per layer", r.per_layer);
  if (o.trace && !r.probed.empty()) {
    std::printf("probed (calls %s does not make):", o.workload.c_str());
    for (const std::string& name : r.probed) std::printf(" %s", name.c_str());
    std::printf("\n");
  }
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  for (const std::string& why : r.invalid) std::printf("invalid: %s\n", why.c_str());

  // Oracle violations count as failures; an invalid run is not correct.
  const bool correct = r.failed == 0 && r.invalid.empty();
  const std::vector<Metric>& printed = o.trace ? r.per_layer : r.end_to_end;

  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream f(path);
    f << "{\"context\": " << ctx.json() << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"end_to_end\": " << metrics_json(r.end_to_end, true)
      << ", \"by_operation\": " << metrics_json(r.detail, true)
      << ", \"per_layer\": " << metrics_json(o.trace ? r.per_layer : std::vector<Metric>{}, true)
      << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(printed, false).c_str());
  return 0;
}
