// Set-up of a SEM deployment through the library's public API.
#include <string>

#include "bench.h"
#include "hash/drbg.h"
#include "ibe/boneh_franklin.h"

namespace medbench {

using namespace medcrypt;

namespace {

// The IB-mRSA modulus comes from a fixed seed, so every run makes the
// same prime search and set-up time does not depend on the workload
// seed. Ordinary (not safe) primes: safe-prime generation at 1024 bits
// takes tens of seconds, and the token and decryption costs measured
// here do not depend on which kind of prime was used.
constexpr std::uint64_t kMrsaModulusSeed = 0x6d6564626e6368ULL;

class PhaseTimer {
 public:
  explicit PhaseTimer(Phases* phases) : phases_(phases), t_(now_ns()) {}
  void mark(const char* name) {
    const std::int64_t t = now_ns();
    if (phases_ != nullptr) {
      phases_->emplace_back(name, static_cast<double>(t - t_) / 1e9);
    }
    t_ = t;
  }

 private:
  Phases* phases_;
  std::int64_t t_;
};

}  // namespace

mediated::SemStats Deployment::sem_stats() const {
  mediated::SemStats total;
  const auto add = [&](const mediated::SemStats& s) {
    total.tokens_issued += s.tokens_issued;
    total.denials += s.denials;
    total.unknown_identities += s.unknown_identities;
  };
  if (ibe_sem) add(ibe_sem->stats());
  if (gdh_sem) add(gdh_sem->stats());
  if (mrsa_sem) add(mrsa_sem->stats());
  return total;
}

std::unique_ptr<Deployment> build_deployment(const Plan& plan,
                                             std::uint64_t seed,
                                             Phases* phases) {
  auto d = std::make_unique<Deployment>();
  hash::HmacDrbg rng(derive_seed(seed, 1));
  PhaseTimer timer(phases);

  d->group = &pairing::paper_params();
  d->revocations = std::make_shared<mediated::RevocationList>();
  timer.mark("params");

  if (plan.mrsa) {
    hash::HmacDrbg modulus_rng(kMrsaModulusSeed);
    d->mrsa = std::make_unique<mediated::IbMRsaSystem>(
        mediated::IbMRsaSystem::Options{1024, 160, /*safe_primes=*/false},
        modulus_rng);
    d->mrsa_sem =
        std::make_unique<mediated::MRsaMediator>(d->mrsa->params(), d->revocations);
    timer.mark("mrsa_modulus");
  }

  // Identities. With ordinary primes some e_ID share a factor with φ(n);
  // such a name is skipped for the next candidate, as a deployment with
  // safe primes would never meet one.
  const std::string tag = std::to_string(seed % 1000003);
  for (std::size_t i = 0; i < plan.users; ++i) {
    for (int k = 0;; ++k) {
      std::string id = "user" + std::to_string(i) + "." + tag +
                       (k == 0 ? "" : "~" + std::to_string(k)) + "@medbench";
      if (plan.mrsa) {
        try {
          (void)d->mrsa->full_exponent(id);
        } catch (const Error&) {
          continue;
        }
      }
      d->ids.push_back(std::move(id));
      break;
    }
  }

  if (plan.ibe) {
    d->pkg = std::make_unique<ibe::Pkg>(*d->group, kMessageLen, rng);
    d->ibe_sem =
        std::make_unique<mediated::IbeMediator>(d->pkg->params(), d->revocations);
    d->ibe_users.reserve(plan.users);
    for (const std::string& id : d->ids) {
      d->ibe_users.push_back(mediated::enroll_ibe_user(*d->pkg, *d->ibe_sem, id, rng));
    }
    timer.mark("enrol_ibe");
  }

  if (plan.gdh) {
    d->gdh_sem = std::make_unique<mediated::GdhMediator>(*d->group, d->revocations);
    d->gdh_users.reserve(plan.users);
    for (const std::string& id : d->ids) {
      const gdh::KeyPair key = gdh::keygen(*d->group, rng);
      auto [x_user, x_sem] = gdh::split_key(key.secret, d->group->order(), rng);
      d->gdh_sem->install_key(id, std::move(x_sem));
      d->gdh_users.emplace_back(*d->group, id, x_user, key.pub);
      d->gdh_shares.push_back(std::move(x_user));
    }
    timer.mark("enrol_gdh");
  }

  if (plan.mrsa) {
    d->mrsa_users.reserve(plan.users);
    for (const std::string& id : d->ids) {
      d->mrsa_users.push_back(mediated::enroll_mrsa_user(*d->mrsa, *d->mrsa_sem, id, rng));
    }
    timer.mark("enrol_mrsa");
  }

  if (plan.ciphertext_pool) {
    for (const std::string& id : d->ids) {
      Bytes m(kMessageLen);
      rng.fill(m);
      d->pool.push_back(ibe::full_encrypt(d->pkg->params(), id, m, rng));
      d->pool_plain.push_back(std::move(m));
    }
    timer.mark("ciphertext_pool");
  }

  if (plan.zipf_messages) {
    SplitMix64 mix(derive_seed(seed, 2));
    d->messages.reserve(kZipfMessages);
    for (std::size_t i = 0; i < kZipfMessages; ++i) {
      Bytes m(kMessageLen);
      for (std::size_t j = 0; j < kMessageLen; j += 8) {
        const std::uint64_t w = mix.next();
        for (std::size_t b = 0; b < 8; ++b) {
          m[j + b] = static_cast<std::uint8_t>(w >> (8 * b));
        }
      }
      d->messages.push_back(std::move(m));
    }
    timer.mark("messages");
  }

  // Population-scale revoked set, filled one revoke() at a time as an
  // administrator would (never enrolled, so never requested).
  for (std::size_t i = 0; i < plan.revoked_fill; ++i) {
    d->revocations->revoke("revoked" + std::to_string(i) + "." + tag +
                           "@medbench");
  }
  if (plan.revoked_fill > 0) timer.mark("revoked_fill");
  return d;
}

}  // namespace medbench
