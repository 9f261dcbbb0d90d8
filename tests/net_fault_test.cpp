#include "common/fault.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/socket.hpp"

/// common/fault.hpp: the deterministic fault injector behind the chaos
/// harness.  Covered here: plan generation as a pure function of the seed,
/// JSON round-tripping, the one-shot invocation- and byte-triggered firing
/// semantics, arm/disarm lifecycle, and the net/socket.hpp syscall shims
/// observed through a real socketpair.

namespace fusecu {
namespace {

fault::FaultEvent event(fault::Kind kind, std::uint64_t at, std::uint64_t arg = 0) {
  fault::FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.arg = arg;
  return e;
}

TEST(FaultPlan, GenerateIsAPureFunctionOfTheSeed) {
  const fault::FaultPlan a = fault::FaultPlan::generate(123456789);
  const fault::FaultPlan b = fault::FaultPlan::generate(123456789);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].arg, b.events[i].arg);
  }
  EXPECT_EQ(a.seed, 123456789u);

  // Magnitudes stay trial-friendly: stalls <= 20ms, skew <= 3s, caps >= 1.
  for (int seed = 1; seed < 50; ++seed) {
    const fault::FaultPlan plan = fault::FaultPlan::generate(static_cast<std::uint64_t>(seed));
    EXPECT_LE(plan.events.size(), 12u);
    for (const fault::FaultEvent& e : plan.events) {
      switch (e.kind) {
        case fault::Kind::kPoolStall:
          EXPECT_LE(e.arg, 20'000u);
          break;
        case fault::Kind::kClockSkew:
          EXPECT_LE(e.arg, 3'000u);
          break;
        case fault::Kind::kShortRead:
        case fault::Kind::kShortWrite:
          EXPECT_GE(e.arg, 1u);
          break;
        case fault::Kind::kWorkerHang:
          // Watchdog-scale: always at least twice the chaos trials' 40 ms
          // watchdog, which is what makes the chaos watchdog invariant
          // plan-decidable.
          EXPECT_GE(e.arg, 100'000u);
          EXPECT_LE(e.arg, 300'000u);
          break;
        case fault::Kind::kReactorStall:
          EXPECT_GE(e.arg, 20'000u);
          EXPECT_LE(e.arg, 120'000u);
          break;
        default:
          break;
      }
    }
  }
}

TEST(FaultPlan, JsonRoundTripsLosslessly) {
  fault::FaultPlan plan;
  plan.seed = 0xdeadbeefcafef00dull;  // full-width: must survive as a string
  plan.events.push_back(event(fault::Kind::kReadReset, 4096, 0));
  plan.events.push_back(event(fault::Kind::kShortWrite, 3, 7));
  plan.events.push_back(event(fault::Kind::kClockSkew, 11, 2500));

  const fault::FaultPlan parsed = fault::FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(parsed.seed, plan.seed);
  ASSERT_EQ(parsed.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(parsed.events[i].at, plan.events[i].at);
    EXPECT_EQ(parsed.events[i].arg, plan.events[i].arg);
  }

  EXPECT_THROW(fault::FaultPlan::from_json("{\"schema\":\"bogus/9\",\"events\":[]}"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::from_json(
                   "{\"schema\":\"fusecu_fault_plan/1\",\"events\":[{\"kind\":\"nope\"}]}"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::from_json("not json at all"), std::exception);
}

TEST(Fault, DisarmedHooksAreInertAndGenerateRoundTripsThroughKindCounts) {
  ASSERT_FALSE(fault::armed());
  EXPECT_EQ(fault::on_read(100).error, 0);
  EXPECT_EQ(fault::on_read(100).cap, 0u);
  EXPECT_EQ(fault::on_write(100).error, 0);
  EXPECT_EQ(fault::on_accept(), 0);
  EXPECT_FALSE(fault::on_poll());
  EXPECT_EQ(fault::clock_skew_ms(), 0);
  EXPECT_EQ(fault::on_pool_task(), 0u);
  EXPECT_EQ(fault::test_bug(), fault::TestBug::kNone);

  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kReadEintr, 0));
  plan.events.push_back(event(fault::Kind::kReadEintr, 1));
  plan.events.push_back(event(fault::Kind::kSpuriousWake, 0));
  const std::vector<int> counts = plan.kind_counts();
  EXPECT_EQ(counts[static_cast<int>(fault::Kind::kReadEintr)], 2);
  EXPECT_EQ(counts[static_cast<int>(fault::Kind::kSpuriousWake)], 1);
  EXPECT_EQ(plan.reset_events(), 0);
  plan.events.push_back(event(fault::Kind::kWriteReset, 10));
  EXPECT_EQ(plan.reset_events(), 1);
}

TEST(Fault, InvocationTriggeredEventsFireOnceAtTheirIndex) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kReadEintr, 1));
  plan.events.push_back(event(fault::Kind::kShortRead, 2, 9));
  fault::ScopedFaultPlan armed(plan);

  EXPECT_EQ(fault::on_read(64).error, 0) << "invocation 0: nothing scheduled";
  EXPECT_EQ(fault::on_read(64).error, EINTR) << "invocation 1";
  const fault::IoFault capped = fault::on_read(64);
  EXPECT_EQ(capped.error, 0);
  EXPECT_EQ(capped.cap, 9u) << "invocation 2";
  EXPECT_EQ(fault::on_read(64).error, 0) << "one-shot: never again";
  EXPECT_EQ(fault::on_read(64).cap, 0u);
  EXPECT_EQ(fault::fired_count(fault::Kind::kReadEintr), 1);
  EXPECT_EQ(fault::fired_count(fault::Kind::kShortRead), 1);
  EXPECT_EQ(fault::fired_total(), 2);
}

TEST(Fault, ByteTriggeredResetFiresAtTheCumulativeOffset) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kWriteReset, 100));
  fault::ScopedFaultPlan armed(plan);

  EXPECT_EQ(fault::on_write(64).error, 0) << "0 bytes written so far";
  fault::note_write_bytes(60);
  EXPECT_EQ(fault::on_write(64).error, 0) << "60 < 100";
  fault::note_write_bytes(50);
  EXPECT_EQ(fault::on_write(64).error, EPIPE) << "110 >= 100";
  EXPECT_EQ(fault::on_write(64).error, 0) << "one-shot";
  // Reads are a separate byte stream: a read reset at the same offset is
  // driven by read bytes only.
  EXPECT_EQ(fault::fired_count(fault::Kind::kWriteReset), 1);
}

TEST(Fault, ClockSkewAccumulatesAndAcceptFaultsPickTheirErrno) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kClockSkew, 0, 500));
  plan.events.push_back(event(fault::Kind::kClockSkew, 2, 700));
  plan.events.push_back(event(fault::Kind::kAcceptEmfile, 0));
  plan.events.push_back(event(fault::Kind::kAcceptDefer, 1));
  plan.events.push_back(event(fault::Kind::kSpuriousWake, 1));
  plan.events.push_back(event(fault::Kind::kPoolStall, 0, 999'999));
  fault::ScopedFaultPlan armed(plan);

  EXPECT_EQ(fault::clock_skew_ms(), 500);
  EXPECT_EQ(fault::clock_skew_ms(), 500) << "skew is permanent, not per-call";
  EXPECT_EQ(fault::clock_skew_ms(), 1200) << "second jump accumulates";

  EXPECT_EQ(fault::on_accept(), EMFILE);
  EXPECT_EQ(fault::on_accept(), EAGAIN);
  EXPECT_EQ(fault::on_accept(), 0);

  EXPECT_FALSE(fault::on_poll());
  EXPECT_TRUE(fault::on_poll());
  EXPECT_FALSE(fault::on_poll());

  EXPECT_EQ(fault::on_pool_task(), 50'000u) << "stalls are hard-capped at 50ms";
}

TEST(Fault, WorkerHangsAndReactorStallsFireAtTheirSitesWithHardCaps) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kWorkerHang, 0, 999'999'999));
  plan.events.push_back(event(fault::Kind::kPoolStall, 1, 30'000));
  plan.events.push_back(event(fault::Kind::kWorkerHang, 1, 120'000));
  plan.events.push_back(event(fault::Kind::kReactorStall, 0, 7'000'000));
  plan.events.push_back(event(fault::Kind::kReactorStall, 2, 25'000));
  fault::ScopedFaultPlan armed(plan);

  EXPECT_EQ(fault::on_pool_task(), 500'000u) << "hangs are hard-capped at 500ms";
  EXPECT_EQ(fault::on_pool_task(), 150'000u)
      << "a stall and a hang due at the same pool invocation stack (30ms + 120ms)";
  EXPECT_EQ(fault::on_pool_task(), 0u);

  EXPECT_EQ(fault::on_loop_turn(), 300'000u) << "loop stalls are hard-capped at 300ms";
  EXPECT_EQ(fault::on_loop_turn(), 0u) << "invocation 1: nothing scheduled";
  EXPECT_EQ(fault::on_loop_turn(), 25'000u);
  EXPECT_EQ(fault::on_loop_turn(), 0u) << "one-shot";

  EXPECT_EQ(fault::fired_count(fault::Kind::kWorkerHang), 2);
  EXPECT_EQ(fault::fired_count(fault::Kind::kReactorStall), 2);

  // The new kinds round-trip by name through the JSON schema.
  const fault::FaultPlan parsed = fault::FaultPlan::from_json(plan.to_json());
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.events[0].kind, fault::Kind::kWorkerHang);
  EXPECT_EQ(parsed.events[3].kind, fault::Kind::kReactorStall);
}

TEST(Fault, DisarmRestoresTheFastPathAndKeepsFiredCountsUntilNextArm) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kReadEintr, 0));
  fault::arm(plan, fault::TestBug::kReorderResponses);
  EXPECT_TRUE(fault::armed());
  EXPECT_EQ(fault::test_bug(), fault::TestBug::kReorderResponses);
  EXPECT_EQ(fault::on_read(8).error, EINTR);
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::test_bug(), fault::TestBug::kNone);
  EXPECT_EQ(fault::on_read(8).error, 0);
  EXPECT_EQ(fault::fired_count(fault::Kind::kReadEintr), 1)
      << "fired counters survive disarm for harvesting";
  fault::arm(fault::FaultPlan{});
  EXPECT_EQ(fault::fired_count(fault::Kind::kReadEintr), 0) << "arm resets them";
  fault::disarm();
}

/// The shims over a real socketpair: injected outcomes come back through
/// the syscall return/errno convention the event loop already speaks.
class FaultShimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0) << std::strerror(errno);
  }
  void TearDown() override {
    close_fd(fds_[0]);
    close_fd(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FaultShimTest, DisarmedShimsAreTheBareSyscalls) {
  const std::string msg = "hello fault layer";
  ASSERT_EQ(sys_send(fds_[0], msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
  char buf[64];
  ASSERT_EQ(sys_recv(fds_[1], buf, sizeof(buf)), static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(std::string(buf, msg.size()), msg);
}

TEST_F(FaultShimTest, ShortReadCapsTheTransferWithoutLosingBytes) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kShortRead, 0, 4));
  fault::ScopedFaultPlan armed(plan);
  const std::string msg = "twelve bytes";
  ASSERT_EQ(sys_send(fds_[0], msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
  char buf[64];
  ASSERT_EQ(sys_recv(fds_[1], buf, sizeof(buf)), 4) << "capped to 4 bytes";
  ASSERT_EQ(sys_recv(fds_[1], buf + 4, sizeof(buf) - 4), static_cast<ssize_t>(msg.size() - 4))
      << "the remainder is still in the socket, not dropped";
  EXPECT_EQ(std::string(buf, msg.size()), msg);
}

TEST_F(FaultShimTest, InjectedErrorsNeverTouchTheKernel) {
  fault::FaultPlan plan;
  // The reset is byte-triggered and due from 0 bytes on, so it outranks the
  // benign faults and claims invocation 0; the EINTR fires on the next one.
  plan.events.push_back(event(fault::Kind::kReadEintr, 1));
  plan.events.push_back(event(fault::Kind::kReadReset, 0));
  fault::ScopedFaultPlan armed(plan);
  const std::string msg = "payload";
  ASSERT_EQ(sys_send(fds_[0], msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
  char buf[64];
  errno = 0;
  ASSERT_EQ(sys_recv(fds_[1], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, ECONNRESET);
  errno = 0;
  ASSERT_EQ(sys_recv(fds_[1], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EINTR);
  // Both fired without consuming socket data: the payload is intact.
  ASSERT_EQ(sys_recv(fds_[1], buf, sizeof(buf)), static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(std::string(buf, msg.size()), msg);
}

TEST_F(FaultShimTest, WriteResetSurfacesAsEpipeAtTheByteOffset) {
  fault::FaultPlan plan;
  plan.events.push_back(event(fault::Kind::kWriteReset, 5));
  fault::ScopedFaultPlan armed(plan);
  ASSERT_EQ(sys_send(fds_[0], "12345", 5), 5);
  errno = 0;
  ASSERT_EQ(sys_send(fds_[0], "x", 1), -1) << "5 cumulative bytes >= offset 5";
  EXPECT_EQ(errno, EPIPE);
  ASSERT_EQ(sys_send(fds_[0], "x", 1), 1) << "one-shot";
}

}  // namespace
}  // namespace fusecu
