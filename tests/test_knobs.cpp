// The QTC_* knob table (core/knobs.hpp): the one parse rule, the override
// API, the public getters that forward to it, and the contract every flag
// knob keeps — switching it never changes fixed-seed counts.

#include "core/knobs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "core/parallel.hpp"
#include "dd/package.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "noise/noise_model.hpp"
#include "service/execution_service.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc {
namespace {

using knobs::Knob;

struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  const char* name_;
};

TEST(Knobs, TableRowsAreWellFormed) {
  std::set<std::string> names;
  for (const knobs::Spec& s : knobs::kTable) {
    SCOPED_TRACE(s.name);
    EXPECT_EQ(std::string(s.name).rfind("QTC_", 0), 0u);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name";
    EXPECT_LE(s.lo, s.hi);
    EXPECT_LT(s.hi, ~std::uint64_t{0});
    if (s.type == knobs::Type::Flag) {
      EXPECT_EQ(s.lo, 0u);
      EXPECT_EQ(s.hi, 1u);
    }
    // A default outside [lo, hi] is only the "derived by the caller" 0.
    if (s.def < s.lo || s.def > s.hi) {
      EXPECT_EQ(s.def, 0u);
    }
  }
}

struct ParseCase {
  Knob knob;
  const char* text;  // nullptr = unset
  std::uint64_t want;
};

TEST(Knobs, OneParseRuleForEveryKnob) {
  const ParseCase cases[] = {
      // Unset or empty -> default.
      {Knob::MapTrials, nullptr, 4},
      {Knob::MapTrials, "", 4},
      {Knob::Fusion, nullptr, 1},
      {Knob::MapFidelity, "", 0},
      // Not wholly parseable -> default (QTC_MAP_TRIALS=garbage gave 1,
      // QTC_NUM_THREADS=3x gave 3).
      {Knob::MapTrials, "garbage", 4},
      {Knob::NumThreads, "3x", 0},
      {Knob::ServiceQueueCap, "12 ", 64},
      {Knob::MapSeed, "12abc", 0xC0FFEE},
      {Knob::DdGcThreshold, "99999999999999999999999", 131072},
      // Below lo -> default (QTC_MAP_TRIALS=0 gave 1, QTC_DD_CT_BITS=2
      // gave 4, QTC_DD_GC_THRESHOLD=-5 wrapped to ~2^64).
      {Knob::MapTrials, "0", 4},
      {Knob::MapTrials, "-3", 4},
      {Knob::DdCtBits, "2", 15},
      {Knob::DdGcThreshold, "-5", 131072},
      {Knob::FusionMaxQubits, "0", 3},
      {Knob::MapSeed, "-5", 0xC0FFEE},
      // Above hi -> hi.
      {Knob::MapTrials, "300", 256},
      {Knob::DdCtBits, "25", 20},
      {Knob::FusionMaxQubits, "9", 6},
      {Knob::ServiceQueueCap, "2000000", 1 << 20},
      {Knob::MapSeed, "0xFFFFFFFFFFFFFFFF", ~std::uint64_t{0} - 1},
      // In range -> the value; base 10, except U64 knobs take base 0.
      {Knob::NumThreads, "3", 3},
      {Knob::DdCtBits, "12", 12},
      {Knob::ServiceResultsCap, "010", 10},
      {Knob::MapSeed, "123", 123},
      {Knob::MapSeed, "0x2A", 42},
      {Knob::MapSeed, "052", 42},
      // 0/off/false/no in any case -> false, or 0 for integer knobs
      // (QTC_TRANSPILE_CACHE=OFF and QTC_SERVICE_BATCH=OFF stayed on).
      {Knob::TranspileCache, "OFF", 0},
      {Knob::ServiceBatch, "OFF", 0},
      {Knob::Simd, "False", 0},
      {Knob::Dispatch, "nO", 0},
      {Knob::TrajParallel, "0", 0},
      {Knob::DdGcThreshold, "off", 0},
      {Knob::DdGcThreshold, "0", 0},
      {Knob::MapSeed, "no", 0},
      {Knob::MapTrials, "OFF", 4},
      // Any other flag text -> true.
      {Knob::MapFidelity, "1", 1},
      {Knob::MapFidelity, "yes", 1},
      {Knob::Fusion, "garbage", 1},
      {Knob::TranspileCache, "00", 1},
  };
  for (const ParseCase& c : cases) {
    EXPECT_EQ(knobs::parse(c.knob, c.text), c.want)
        << knobs::spec(c.knob).name << "="
        << (c.text ? c.text : "(unset)");
  }
}

TEST(Knobs, PublicGettersReadTheEnvironmentOnEveryCall) {
  {
    ScopedEnv env("QTC_MAP_TRIALS", "garbage");
    EXPECT_EQ(map::default_map_trials(), 4);
  }
  {
    ScopedEnv env("QTC_NUM_THREADS", "3x");
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(parallel::num_threads(), hw > 0 ? static_cast<int>(hw) : 1);
  }
  {
    ScopedEnv env("QTC_TRANSPILE_CACHE", "OFF");
    EXPECT_FALSE(transpiler::TranspileCache::enabled());
  }
  EXPECT_TRUE(transpiler::TranspileCache::enabled());
  {
    ScopedEnv env("QTC_SERVICE_BATCH", "Off");
    EXPECT_FALSE(service::default_batching());
  }
  EXPECT_TRUE(service::default_batching());
  {
    ScopedEnv env("QTC_DD_GC_THRESHOLD", "-5");
    EXPECT_EQ(dd::Package(2).gc_threshold(), 131072u);
  }
  {
    ScopedEnv env("QTC_DD_GC_THRESHOLD", "OFF");
    EXPECT_EQ(dd::Package(2).gc_threshold(), 0u);
  }
}

TEST(Knobs, OverrideWinsOverEnvironmentUntilCleared) {
  ScopedEnv env("QTC_FUSION_MAX_QUBITS", "2");
  EXPECT_EQ(knobs::get(Knob::FusionMaxQubits), 2u);
  knobs::set(Knob::FusionMaxQubits, 5);
  EXPECT_EQ(knobs::get(Knob::FusionMaxQubits), 5u);
  knobs::set(Knob::FusionMaxQubits, 40);  // clamps to hi
  EXPECT_EQ(knobs::get(Knob::FusionMaxQubits), 6u);
  knobs::clear(Knob::FusionMaxQubits);
  EXPECT_EQ(knobs::get(Knob::FusionMaxQubits), 2u);

  knobs::set(Knob::MapFidelity, 7);  // flags store value != 0
  EXPECT_EQ(knobs::get(Knob::MapFidelity), 1u);
  knobs::set(Knob::MapFidelity, 0);
  EXPECT_FALSE(map::default_map_fidelity());
  knobs::clear(Knob::MapFidelity);

  knobs::set(Knob::MapSeed, ~std::uint64_t{0});  // clamps below the sentinel
  EXPECT_EQ(map::default_map_seed(), ~std::uint64_t{0} - 1);
  knobs::set(Knob::MapSeed, 0);
  EXPECT_EQ(map::default_map_seed(), 0u);
  knobs::clear(Knob::MapSeed);
  EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
}

// --- contract sweep ----------------------------------------------------------

/// Exceptions documented in README's knob section: these select *which*
/// deterministic result is produced, so they are not passthroughs.
bool selects_result(const knobs::Spec& s) {
  const std::string name = s.name;
  return name == "QTC_DISPATCH" || name == "QTC_MAP_FIDELITY";
}

QuantumCircuit sweep_circuit() {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).rx(0.7, 2).cx(1, 2).t(3).cz(2, 3).ry(1.3, 0).u(0.4, 0.2,
                                                                   -0.9, 1);
  qc.measure_all();
  return qc;
}

TEST(KnobContract, EveryFlagKnobKeepsFixedSeedCountsBitwise) {
  const arch::Backend qx4 = arch::qx4_backend();
  const noise::NoiseModel noiseless;
  const QuantumCircuit qc = sweep_circuit();
  auto run = [&](const noise::NoiseModel* model) {
    exec::ExecuteOptions opts;
    opts.shots = 512;
    opts.seed = 2024;
    opts.noise_model = model;  // nullptr: QX4's calibration noise
    return exec::execute(qc, qx4, opts).counts.histogram;
  };
  int swept = 0;
  for (const knobs::Spec& s : knobs::kTable) {
    if (s.type != knobs::Type::Flag || selects_result(s)) continue;
    SCOPED_TRACE(s.name);
    knobs::set(s.knob, 0);
    const auto noisy_off = run(nullptr);
    const auto ideal_off = run(&noiseless);
    knobs::set(s.knob, 1);
    const auto noisy_on = run(nullptr);
    const auto ideal_on = run(&noiseless);
    knobs::clear(s.knob);
    EXPECT_EQ(noisy_off, noisy_on);
    EXPECT_EQ(ideal_off, ideal_on);
    ++swept;
  }
  EXPECT_GE(swept, 5);
}

}  // namespace
}  // namespace qtc
