// The one environment reader: every spelling each EPICAST_* variable
// accepts or rejects, over a fake environment, and the once-per-process
// parse of the real one.
#include "epicast/common/env.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace epicast {
namespace {

/// A fake environment holding exactly `vars`.
env::Lookup fake(std::map<std::string, std::string> vars) {
  return [vars = std::move(vars)](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

env::Settings parse_one(const char* name, const char* value) {
  return env::parse(fake({{name, value}}));
}

#if defined(EPICAST_ASAN)
constexpr MessagePool::Mode kBuildPool = MessagePool::Mode::PassThrough;
#else
constexpr MessagePool::Mode kBuildPool = MessagePool::Mode::Pooling;
#endif

TEST(Env, UnsetAndEmptyKeepEveryDefault) {
  for (const env::Lookup& lookup :
       {fake({}), fake({{"EPICAST_SIZING", ""},
                        {"EPICAST_POOL", ""},
                        {"EPICAST_ORACLES", ""},
                        {"EPICAST_PROFILE", ""},
                        {"EPICAST_JOBS", ""},
                        {"EPICAST_FAULTS", ""}})}) {
    const env::Settings s = env::parse(lookup);
    EXPECT_EQ(s.sizing, SizingMode::Nominal);
    EXPECT_EQ(s.pool, kBuildPool);
    EXPECT_TRUE(s.oracles);
    EXPECT_FALSE(s.profile);
    EXPECT_EQ(s.jobs, 0u);  // auto
    EXPECT_TRUE(s.faults.empty());
  }
}

TEST(Env, SwitchesShareOneSpellingTable) {
  for (const char* on : {"1", "on", "ON", "true"}) {
    EXPECT_EQ(parse_one("EPICAST_POOL", on).pool, MessagePool::Mode::Pooling)
        << on;
    EXPECT_TRUE(parse_one("EPICAST_ORACLES", on).oracles) << on;
    EXPECT_TRUE(parse_one("EPICAST_PROFILE", on).profile) << on;
    EXPECT_TRUE(env::read_switch(fake({{"EPICAST_BENCH_FAST", on}}),
                                 "EPICAST_BENCH_FAST", false))
        << on;
  }
  for (const char* off : {"0", "off", "OFF", "false"}) {
    EXPECT_EQ(parse_one("EPICAST_POOL", off).pool,
              MessagePool::Mode::PassThrough)
        << off;
    EXPECT_FALSE(parse_one("EPICAST_ORACLES", off).oracles) << off;
    EXPECT_FALSE(parse_one("EPICAST_PROFILE", off).profile) << off;
    EXPECT_FALSE(env::read_switch(fake({{"EPICAST_BENCH_FAST", off}}),
                                  "EPICAST_BENCH_FAST", true))
        << off;
    EXPECT_FALSE(env::read_switch(fake({{"EPICAST_BENCH_SCALE_XL", off}}),
                                  "EPICAST_BENCH_SCALE_XL", true))
        << off;
  }
}

TEST(Env, SizingAcceptsWireOnly) {
  EXPECT_EQ(parse_one("EPICAST_SIZING", "wire").sizing, SizingMode::Wire);
}

TEST(Env, JobsAndCountsAreStrictDecimal) {
  EXPECT_EQ(parse_one("EPICAST_JOBS", "1").jobs, 1u);
  EXPECT_EQ(parse_one("EPICAST_JOBS", "16").jobs, 16u);
  EXPECT_EQ(parse_one("EPICAST_JOBS", "4095").jobs, 4095u);
  const env::Lookup iters = fake({{"EPICAST_STRESS_ITERS", "200"}});
  EXPECT_EQ(env::read_count(iters, "EPICAST_STRESS_ITERS", 1, 100000, 40),
            200u);
  EXPECT_EQ(env::read_count(fake({}), "EPICAST_STRESS_ITERS", 1, 100000, 40),
            40u);
}

TEST(Env, FaultsUseThePlanGrammar) {
  const env::Settings s =
      parse_one("EPICAST_FAULTS", "churn(period=1,down=0.3);burst(p=0.05)");
  EXPECT_EQ(s.faults.churns.size(), 1u);
  EXPECT_EQ(s.faults.bursts.size(), 1u);
}

TEST(Env, SettingsAreTheProcessEnvironmentReadOnce) {
  const env::Settings& s = env::settings();
  EXPECT_EQ(&s, &env::settings());
  const env::Settings again = env::parse(env::process_env);
  EXPECT_EQ(s.sizing, again.sizing);
  EXPECT_EQ(s.pool, again.pool);
  EXPECT_EQ(s.oracles, again.oracles);
  EXPECT_EQ(s.profile, again.profile);
  EXPECT_EQ(s.jobs, again.jobs);
  // The test environment must not set EPICAST_FAULTS: an empty plan is
  // what keeps ScenarioConfig inert.
  EXPECT_TRUE(s.faults.empty());
}

TEST(EnvDeathTest, RejectsUnknownSpellingsNamingTheVariable) {
  const std::pair<const char*, std::vector<const char*>> bad[] = {
      {"EPICAST_SIZING", {"Wire", "WIRE", "1", "wire ", "nominal"}},
      {"EPICAST_POOL", {"Off", "yes", "2", " on"}},
      {"EPICAST_ORACLES", {"no", "yes", "Off", "TRUE", "2", " on"}},
      {"EPICAST_PROFILE", {"yes", "On", "TRUE", "2", " 1", "1 ", "enabled"}},
      {"EPICAST_JOBS",
       {"0", "4096", "99999999999", "-1", "+2", " 2", "2 ", "1.5", "two",
        "not-a-number"}},
      {"EPICAST_FAULTS", {"churn(period=1", "nuke(at=1)", "burst(p=1.5)"}},
  };
  for (const auto& [name, values] : bad) {
    for (const char* value : values) {
      EXPECT_DEATH((void)parse_one(name, value),
                   std::string(name) + ": unknown value")
          << value;
    }
  }
  for (const char* value : {"yes", "On", "2"}) {
    EXPECT_DEATH((void)env::read_switch(fake({{"EPICAST_BENCH_FAST", value}}),
                                        "EPICAST_BENCH_FAST", false),
                 "EPICAST_BENCH_FAST: unknown value")
        << value;
  }
  for (const char* value : {"abc", "0", "-5", "12x"}) {
    EXPECT_DEATH(
        (void)env::read_count(fake({{"EPICAST_STRESS_ITERS", value}}),
                              "EPICAST_STRESS_ITERS", 1, 100000, 40),
        "EPICAST_STRESS_ITERS: unknown value")
        << value;
  }
}

}  // namespace
}  // namespace epicast
