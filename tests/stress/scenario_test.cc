#include "stress/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace schemble {
namespace {

// A tiny deterministic scenario exercising every draw kind. Registered
// scenarios use the same API, so replay identity proven here transfers.
void DrawHeavyScenario(ScenarioContext& ctx) {
  const int n = ctx.DrawInt("n", 1, 10);
  const double x = ctx.DrawDouble("x", 0.0, 1.0);
  const bool flip = ctx.DrawChance("flip", 0.5);
  const uint64_t sub = ctx.DrawSeed("sub");
  ctx.Event("derived = " + std::to_string(n) + (flip ? "+" : "-"));
  ctx.Note("x = " + FormatDouble(x));
  ctx.ExpectTrue(sub != 0u || true, "never fails");
}

TEST(ScenarioContextTest, SameSeedProducesByteIdenticalEventLog) {
  const Scenario scenario{"draw-heavy", "test scenario", &DrawHeavyScenario};
  const ScenarioContext first = RunScenario(scenario, 12345);
  const ScenarioContext second = RunScenario(scenario, 12345);
  ASSERT_EQ(first.events().size(), second.events().size());
  for (size_t i = 0; i < first.events().size(); ++i) {
    EXPECT_EQ(first.events()[i], second.events()[i]) << "event " << i;
  }
  EXPECT_FALSE(first.failed());
  EXPECT_FALSE(second.failed());
}

TEST(ScenarioContextTest, DistinctSeedsProduceDistinctDraws) {
  const Scenario scenario{"draw-heavy", "test scenario", &DrawHeavyScenario};
  const ScenarioContext a = RunScenario(scenario, 1);
  const ScenarioContext b = RunScenario(scenario, 2);
  // The first event names the scenario and seed, so it always differs;
  // demand an actual parameter-draw difference beyond it.
  ASSERT_EQ(a.events().size(), b.events().size());
  bool draw_differs = false;
  for (size_t i = 1; i < a.events().size(); ++i) {
    if (a.events()[i] != b.events()[i]) draw_differs = true;
  }
  EXPECT_TRUE(draw_differs) << "seeds 1 and 2 drew identical parameters";
}

TEST(ScenarioContextTest, FirstEventRecordsScenarioAndSeed) {
  const Scenario scenario{"draw-heavy", "test scenario", &DrawHeavyScenario};
  const ScenarioContext ctx = RunScenario(scenario, 99);
  ASSERT_FALSE(ctx.events().empty());
  EXPECT_EQ(ctx.events().front(), "scenario draw-heavy seed 99");
}

TEST(ScenarioContextTest, DrawEventsEmbedNameValueAndRange) {
  ScenarioContext ctx(7);
  const int v = ctx.DrawInt("knob", 2, 9);
  ASSERT_EQ(ctx.events().size(), 1u);
  EXPECT_EQ(ctx.events()[0], "draw knob = " + std::to_string(v) +
                                 " in [2, 9]");
  EXPECT_GE(v, 2);
  EXPECT_LE(v, 9);
}

TEST(ScenarioContextTest, NotesAndFailuresStayOutOfTheEventLog) {
  ScenarioContext ctx(7);
  ctx.Note("wall time = 3ms");
  ctx.Fail("bad");
  EXPECT_TRUE(ctx.events().empty());
  ASSERT_EQ(ctx.notes().size(), 1u);
  ASSERT_EQ(ctx.failures().size(), 1u);
  EXPECT_TRUE(ctx.failed());
}

TEST(ScenarioContextTest, ExpectHelpersRecordThroughFail) {
  ScenarioContext ctx(7);
  ctx.ExpectTrue(true, "fine");
  ctx.ExpectEq(3, 3, "fine");
  ctx.ExpectGe(4, 3, "fine");
  ctx.ExpectLeDouble(0.5, 1.0, "fine");
  EXPECT_FALSE(ctx.failed());

  ctx.ExpectEq(3, 4, "count");
  ASSERT_TRUE(ctx.failed());
  ASSERT_EQ(ctx.failures().size(), 1u);
  // The message names the expectation so a nightly log is actionable.
  EXPECT_NE(ctx.failures()[0].find("count"), std::string::npos);

  ctx.ExpectGe(2, 3, "floor");
  ctx.ExpectLeDouble(2.0, 1.0, "ceiling");
  ctx.ExpectTrue(false, "flag");
  EXPECT_EQ(ctx.failures().size(), 4u);
}

TEST(ScenarioContextTest, FormatDoubleRoundTripsDeterministically) {
  EXPECT_EQ(FormatDouble(0.1), FormatDouble(0.1));
  EXPECT_NE(FormatDouble(0.1), FormatDouble(0.2));
  // %.17g round-trips doubles exactly.
  const double value = 1.0 / 3.0;
  EXPECT_EQ(std::stod(FormatDouble(value)), value);
}

TEST(ScenarioRegistryTest, BuiltinFleetRegistersOnceAndIsFindable) {
  RegisterBuiltinScenarios();
  const size_t count = ScenarioRegistry::Instance().scenarios().size();
  EXPECT_EQ(count, 9u);
  RegisterBuiltinScenarios();  // idempotent
  EXPECT_EQ(ScenarioRegistry::Instance().scenarios().size(), count);

  const ScenarioRegistry& registry = ScenarioRegistry::Instance();
  for (const char* name :
       {"hetero-speeds", "stragglers-diurnal", "fail-stop-recovery",
        "multi-tenant-priorities", "bursty-overlay", "sharded-chaos",
        "batched-coalescing", "four-domain-gauntlet",
        "tiny-inboxes"}) {
    const Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_NE(scenario->fn, nullptr) << name;
    EXPECT_FALSE(scenario->description.empty()) << name;
  }
  EXPECT_EQ(registry.Find("no-such-scenario"), nullptr);
}

}  // namespace
}  // namespace schemble
