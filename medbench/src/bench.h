// Shared declarations of medbench: run options, the SEM
// deployment a workload runs against, per-client sample buffers and the
// metric records main.cpp prints.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ec/point.h"
#include "gdh/bls.h"
#include "ibe/pkg.h"
#include "mediated/ib_mrsa.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"

#include "harness.h"
#include "oracle.h"
#include "trace.h"

namespace medbench {

using medcrypt::Bytes;
using medcrypt::bigint::BigInt;
using medcrypt::ec::Point;

/// Population and sizing shared by every workload (README.md,
/// "Workloads").
inline constexpr std::size_t kUsers = 1024;
inline constexpr std::size_t kMessageLen = 32;
inline constexpr std::size_t kZipfMessages = 16384;
inline constexpr double kZipfExponent = 1.0;
inline constexpr int kClientThreads = 2;
/// Set-ups timed per run (setup_s is their median), the share of
/// client-seconds the quiet_* metrics keep, and the CycleClock steps
/// each client times after every op, about 14 µs (README.md,
/// "End-to-end metrics").
inline constexpr int kSetupRuns = 3;
inline constexpr double kQuietShare = 0.1;
inline constexpr int kClockSteps = 20000;

inline constexpr std::array<std::string_view, 3> kWorkloads = {
    "mail_uniform", "sign_zipf", "revocation_churn"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;     // where result and span files go ("" = none)
  std::string git_rev;     // "none" outside a git checkout
  std::string src_digest;  // content digest of the library sources
};

/// Which schemes a deployment enrols, and how many identities set-up
/// revokes one by one before the run.
struct Plan {
  bool ibe = false;
  bool gdh = false;
  bool mrsa = false;
  std::size_t users = kUsers;
  std::size_t revoked_fill = 0;
  bool ciphertext_pool = false;  // one BF-IBE ciphertext per user
  bool zipf_messages = false;    // the 16384 distinct sign messages
};

/// Named wall-clock phases of set-up, in seconds.
using Phases = std::vector<std::pair<std::string, double>>;

/// One SEM deployment: a revocation list shared by the enrolled
/// schemes' mediators, and the user endpoints the clients drive.
struct Deployment {
  const medcrypt::pairing::ParamSet* group = nullptr;
  std::shared_ptr<medcrypt::mediated::RevocationList> revocations;
  std::vector<std::string> ids;

  std::unique_ptr<medcrypt::ibe::Pkg> pkg;
  std::unique_ptr<medcrypt::mediated::IbeMediator> ibe_sem;
  std::vector<medcrypt::mediated::MediatedIbeUser> ibe_users;

  std::unique_ptr<medcrypt::mediated::GdhMediator> gdh_sem;
  std::vector<medcrypt::mediated::MediatedGdhUser> gdh_users;
  // The user shares x_user, held by the benchmark so a traced sign can
  // time Point::mul by the share (MediatedGdhUser keeps it private).
  std::vector<BigInt> gdh_shares;

  std::unique_ptr<medcrypt::mediated::IbMRsaSystem> mrsa;
  std::unique_ptr<medcrypt::mediated::MRsaMediator> mrsa_sem;
  std::vector<medcrypt::mediated::IbMRsaUser> mrsa_users;

  std::vector<medcrypt::ibe::FullCiphertext> pool;  // pool[u] is for ids[u]
  std::vector<Bytes> pool_plain;
  std::vector<Bytes> messages;  // Zipf-ranked sign messages

  /// Audit counters summed over the enrolled mediators.
  medcrypt::mediated::SemStats sem_stats() const;
};

std::unique_ptr<Deployment> build_deployment(const Plan& plan,
                                             std::uint64_t seed,
                                             Phases* phases);

/// A signature to check with an independent gdh::verify after the run.
struct SignedRec {
  std::uint32_t signer = 0;
  std::uint32_t message = 0;
  Point signature;
};

/// A revocable request of revocation_churn, for the oracle.
struct RequestRec {
  std::uint32_t user = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool granted = false;
};

/// What one client or generator thread measured.
struct ClientOut {
  // Latencies in ms, stamped with their op's start (a batch is one op).
  Series op;  // every completed op, end to end
  Series encrypt, decrypt, mrsa_decrypt, sign;
  Series clock;  // ns per core cycle, timed after each op
  std::vector<double> lag_ms;  // generator lateness / closed-loop issue gap
  std::vector<double> traced_ms, untraced_ms;  // op service times by mode
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t denied = 0;      // requests refused for a revoked identity
  std::uint64_t denied_ops = 0;  // ops that ended in such a refusal
  std::int64_t last_done_ns = 0;
  std::vector<std::string> errors;  // the first few failures, for the report
  std::vector<SignedRec> signatures;
  std::vector<RequestRec> requests;
  SpanLog log;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// One named number of the report. `samples` is the count it was
/// computed from (0 for single readings such as set-up time).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;  // revocation-visibility oracle
  /// Why the run is not valid: a p99 with fewer than ten samples beyond
  /// it, trace coverage under 0.90, a call the workload makes that left
  /// no span. A run is correct only when this is empty.
  std::vector<std::string> invalid;
  /// Per-layer metrics read from the stand-alone probe (calls the
  /// workload does not make).
  std::vector<std::string> probed;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;  // named per-kind metrics and context
  Phases phases;
  std::vector<std::string> errors;
};

/// Runs one of kWorkloads as described in README.md and fills `result`.
void run_workload(const Options& options, RunResult& result);

// --- probes.cpp ------------------------------------------------------------

/// Same-run calibration: FpMul and the pairing / curve layers above it,
/// timed single-threaded before the load (README.md, "Calibration").
void run_calibration(const medcrypt::pairing::ParamSet& group,
                     std::uint64_t seed, std::vector<Metric>& out);

/// Median µs of every per-layer span name, each measured by calling the
/// public function alone on a small probe deployment. Used for the
/// per-layer metrics of calls a workload does not make.
std::vector<double> run_layer_probes(const Deployment& probe,
                                     std::uint64_t seed);

}  // namespace medbench
