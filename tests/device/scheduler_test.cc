#include "src/device/scheduler.h"

#include <gtest/gtest.h>

#include <map>

namespace fl::device {
namespace {

PopulationRegistration Reg(const std::string& name,
                           Duration cadence = Hours(1)) {
  return PopulationRegistration{name, name + "-store", cadence};
}

// Registers `name` and returns its id (fails the test on error).
PopulationId Add(MultiTenantScheduler& s, const std::string& name,
                 Duration cadence = Hours(1)) {
  auto id = s.RegisterPopulation(Reg(name, cadence));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.value_or(PopulationId{});
}

TEST(SchedulerTest, RegisterAndFind) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  EXPECT_EQ(s.registered_count(), 1u);
  ASSERT_TRUE(s.Find("a").ok());
  EXPECT_EQ((*s.Find("a"))->example_store, "a-store");
  EXPECT_FALSE(s.Find("b").ok());
}

TEST(SchedulerTest, DuplicateRegistrationRejected) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  EXPECT_EQ(s.RegisterPopulation(Reg("a")).status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(s.registered_count(), 1u);
}

TEST(SchedulerTest, Unregister) {
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a");
  ASSERT_TRUE(s.UnregisterPopulation(a).ok());
  EXPECT_EQ(s.registered_count(), 0u);
  EXPECT_FALSE(s.NextSession(SimTime{0}).has_value());
  EXPECT_FALSE(s.NextRunnableAt(SimTime{0}).has_value());
  EXPECT_FALSE(s.Find("a").ok());
  EXPECT_FALSE(s.UnregisterPopulation(a).ok());
  // The name can come back; it gets a fresh id and the old one stays dead.
  const PopulationId again = Add(s, "a");
  EXPECT_NE(again, a);
  EXPECT_EQ(*s.NextSession(SimTime{0}), again);
  s.SetEarliestCheckin(a, SimTime{Hours(9).millis});  // ignored
  EXPECT_EQ(s.NextRunnableAt(SimTime{0})->millis, 0);
}

TEST(SchedulerTest, FifoOrderAmongPopulations) {
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a");
  const PopulationId b = Add(s, "b");
  EXPECT_EQ(*s.NextSession(SimTime{0}), a);
  s.OnSessionStarted(a, SimTime{0});
  s.OnSessionEnded();
  // "a" rotated to the back and throttled by cadence; "b" is next.
  EXPECT_EQ(*s.NextSession(SimTime{1}), b);
}

TEST(SchedulerTest, NoParallelSessions) {
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a");
  Add(s, "b");
  s.OnSessionStarted(a, SimTime{0});
  EXPECT_TRUE(s.running());
  // While a session runs nothing else is offered ("we avoid running
  // training sessions on-device in parallel").
  EXPECT_FALSE(s.NextSession(SimTime{0}).has_value());
  s.OnSessionEnded();
  EXPECT_TRUE(s.NextSession(SimTime{1}).has_value());
}

TEST(SchedulerTest, CadenceThrottlesRepeatRuns) {
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a", Hours(2));
  s.OnSessionStarted(a, SimTime{0});
  s.OnSessionEnded();
  EXPECT_FALSE(s.NextSession(SimTime{Hours(1).millis}).has_value());
  EXPECT_TRUE(s.NextSession(SimTime{Hours(2).millis}).has_value());
}

TEST(SchedulerTest, PaceSteeringWindowRespected) {
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a", Seconds(1));
  s.SetEarliestCheckin(a, SimTime{Hours(5).millis});
  EXPECT_FALSE(s.NextSession(SimTime{Hours(4).millis}).has_value());
  EXPECT_TRUE(s.NextSession(SimTime{Hours(5).millis}).has_value());
}

TEST(SchedulerTest, NextRunnableAtReportsEarliest) {
  MultiTenantScheduler s;
  EXPECT_FALSE(s.NextRunnableAt(SimTime{0}).has_value());
  const PopulationId a = Add(s, "a");
  const PopulationId b = Add(s, "b");
  s.SetEarliestCheckin(a, SimTime{5000});
  s.SetEarliestCheckin(b, SimTime{9000});
  EXPECT_EQ(s.NextRunnableAt(SimTime{0})->millis, 5000);
  // Past times clamp to now.
  EXPECT_EQ(s.NextRunnableAt(SimTime{6000})->millis, 6000);
}

TEST(SchedulerTest, StaleAppNeverStarves) {
  // The FIFO worker queue guarantees both populations run over time.
  MultiTenantScheduler s;
  const PopulationId a = Add(s, "a", Seconds(1));
  const PopulationId b = Add(s, "b", Seconds(1));
  std::map<PopulationId, int> runs;
  SimTime t{0};
  for (int i = 0; i < 20; ++i) {
    const auto next = s.NextSession(t);
    ASSERT_TRUE(next.has_value());
    ++runs[*next];
    s.OnSessionStarted(*next, t);
    s.OnSessionEnded();
    t = t + Seconds(2);
  }
  EXPECT_EQ(runs[a], 10);
  EXPECT_EQ(runs[b], 10);
}

}  // namespace
}  // namespace fl::device
