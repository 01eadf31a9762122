// Unit tests for the boolean combinator modules.
#include <gtest/gtest.h>

#include "model/logic.hpp"
#include "module_test_util.hpp"
#include "support/check.hpp"

namespace df::model {
namespace {

using testutil::Script;
using testutil::run_module;

Script bools(std::initializer_list<int> bits) {
  Script script;
  for (const int b : bits) {
    script.push_back(event::Value(b != 0));
  }
  return script;
}

TEST(AndGate, TruthTableOverTime) {
  const auto out = run_module(factory_of<AndGate>(std::size_t{2}),
                              {bools({0, 1, 1, 1}), bools({0, 0, 1, 1})});
  // Outputs: f (initial), then t at phase 3; phase 4 unchanged -> silent.
  ASSERT_EQ(out.size(), 2U);
  EXPECT_FALSE(out[0].second.as_bool());
  EXPECT_EQ(out[1].first, 3U);
  EXPECT_TRUE(out[1].second.as_bool());
}

TEST(AndGate, UnfiredInputsCountAsFalse) {
  const auto out = run_module(factory_of<AndGate>(std::size_t{2}),
                              {bools({1}), Script{std::nullopt}});
  ASSERT_EQ(out.size(), 1U);
  EXPECT_FALSE(out[0].second.as_bool());
}

TEST(OrGate, RisesAndFalls) {
  const auto out = run_module(factory_of<OrGate>(std::size_t{2}),
                              {bools({0, 1, 0, 0}), bools({0, 0, 0, 1})});
  ASSERT_EQ(out.size(), 4U);
  EXPECT_FALSE(out[0].second.as_bool());
  EXPECT_TRUE(out[1].second.as_bool());
  EXPECT_FALSE(out[2].second.as_bool());
  EXPECT_TRUE(out[3].second.as_bool());
}

TEST(XorGate, ParityOverInputs) {
  const auto out = run_module(factory_of<XorGate>(std::size_t{2}),
                              {bools({1, 1}), bools({0, 1})});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_TRUE(out[0].second.as_bool());   // 1 xor 0
  EXPECT_FALSE(out[1].second.as_bool());  // 1 xor 1
}

TEST(MajorityGate, QuorumSemantics) {
  const auto out = run_module(
      factory_of<MajorityGate>(std::size_t{3}, std::size_t{2}),
      {bools({1, 1, 1}), bools({0, 1, 0}), bools({0, 0, 0})});
  ASSERT_EQ(out.size(), 3U);
  EXPECT_FALSE(out[0].second.as_bool());  // 1 of 3
  EXPECT_TRUE(out[1].second.as_bool());   // 2 of 3
  EXPECT_FALSE(out[2].second.as_bool());  // back to 1 of 3
}

TEST(MajorityGate, RejectsBadQuorum) {
  EXPECT_THROW(MajorityGate(2, 3), support::check_error);
  EXPECT_THROW(MajorityGate(2, 0), support::check_error);
}

TEST(NotGate, Inverts) {
  const auto out =
      run_module(factory_of<NotGate>(), {bools({0, 1, 1, 0})});
  ASSERT_EQ(out.size(), 3U);
  EXPECT_TRUE(out[0].second.as_bool());
  EXPECT_FALSE(out[1].second.as_bool());
  EXPECT_TRUE(out[2].second.as_bool());
}

TEST(Latch, FiresExactlyOnce) {
  const auto out = run_module(
      factory_of<LatchModule>(),
      {Script{std::nullopt, event::Value(true), event::Value(true),
              event::Value(false)}});
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].first, 2U);
  EXPECT_TRUE(out[0].second.as_bool());
}

TEST(PulseCounter, EmitsEveryNthEvent) {
  const auto out = run_module(
      factory_of<PulseCounterModule>(std::uint64_t{3}),
      {testutil::script_of(10, [](auto) { return 1.0; })});
  ASSERT_EQ(out.size(), 3U);
  EXPECT_EQ(out[0].second.as_int(), 3);
  EXPECT_EQ(out[1].second.as_int(), 6);
  EXPECT_EQ(out[2].second.as_int(), 9);
}

TEST(BoolGate, RequiresAtLeastOneInput) {
  EXPECT_THROW(AndGate(0), support::check_error);
}

TEST(Latch, CheckpointRoundTripKeepsFired) {
  // Fired in phase 2, checkpointed at 4: a later input must stay silent.
  const auto run = testutil::checkpoint_round_trip(
      factory_of<LatchModule>(), {bools({0, 1, 0, 0, 0, 1, 1})}, 4);
  EXPECT_EQ(run.restored, run.uninterrupted);
  EXPECT_TRUE(run.uninterrupted.empty());
  EXPECT_FALSE(run.unrestored.empty());
}

TEST(OrGate, CheckpointRoundTripKeepsLastOutput) {
  // The gate reported `true` before the checkpoint at phase 3; repeating
  // the same inputs afterwards is no change and must stay silent.
  const auto run = testutil::checkpoint_round_trip(
      factory_of<OrGate>(std::size_t{2}),
      {bools({1, 1, 1, 1, 1, 0}), bools({0, 0, 0, 0, 0, 0})}, 3);
  EXPECT_EQ(run.restored, run.uninterrupted);
  ASSERT_EQ(run.uninterrupted.size(), 1U);
  EXPECT_FALSE(run.uninterrupted[0].second.as_bool());
  EXPECT_NE(run.unrestored, run.uninterrupted);
}

}  // namespace
}  // namespace df::model
