#include "net/poller.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "net/socket.hpp"

/// Poller: the epoll readiness notification behind the event loop.

namespace fusecu {
namespace {

class PollerTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::pipe(fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }

  int fds_[2] = {-1, -1};
};

TEST_F(PollerTest, TimeoutWithNothingReady) {
  Poller poller;
  poller.add(read_fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<PollEvent> events;
  EXPECT_EQ(poller.wait(events, 0), 0);
  EXPECT_TRUE(events.empty());
}

TEST_F(PollerTest, ReportsReadable) {
  Poller poller;
  poller.add(read_fd(), true, false);
  ASSERT_EQ(::write(write_fd(), "x", 1), 1);

  std::vector<PollEvent> events;
  ASSERT_EQ(poller.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, read_fd());
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);
}

TEST_F(PollerTest, LevelTriggeredUntilDrained) {
  Poller poller;
  poller.add(read_fd(), true, false);
  ASSERT_EQ(::write(write_fd(), "x", 1), 1);

  std::vector<PollEvent> events;
  ASSERT_EQ(poller.wait(events, 1000), 1);
  ASSERT_EQ(poller.wait(events, 1000), 1)
      << "level-triggered: still readable until the byte is consumed";
  char c;
  ASSERT_EQ(::read(read_fd(), &c, 1), 1);
  EXPECT_EQ(poller.wait(events, 0), 0);
}

TEST_F(PollerTest, SetDropsAndRestoresInterest) {
  Poller poller;
  poller.add(read_fd(), true, false);
  ASSERT_EQ(::write(write_fd(), "x", 1), 1);

  // Deferred-read backpressure is exactly this: drop the read bit while
  // data is pending, nothing reports ready; restore it, the event returns.
  poller.set(read_fd(), false, false);
  std::vector<PollEvent> events;
  EXPECT_EQ(poller.wait(events, 0), 0);
  poller.set(read_fd(), true, false);
  EXPECT_EQ(poller.wait(events, 1000), 1);
}

TEST_F(PollerTest, ReportsWritable) {
  Poller poller;
  poller.add(write_fd(), false, true);
  std::vector<PollEvent> events;
  ASSERT_EQ(poller.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, write_fd());
  EXPECT_TRUE(events[0].writable);
}

TEST_F(PollerTest, RemoveStopsReporting) {
  Poller poller;
  poller.add(read_fd(), true, false);
  EXPECT_EQ(poller.size(), 1);
  ASSERT_EQ(::write(write_fd(), "x", 1), 1);
  poller.remove(read_fd());
  EXPECT_EQ(poller.size(), 0);
  std::vector<PollEvent> events;
  EXPECT_EQ(poller.wait(events, 0), 0);
}

TEST_F(PollerTest, HangupOnClosedWriteEnd) {
  Poller poller;
  poller.add(read_fd(), true, false);
  ::close(fds_[1]);
  fds_[1] = -1;

  std::vector<PollEvent> events;
  ASSERT_EQ(poller.wait(events, 1000), 1);
  EXPECT_TRUE(events[0].hangup || events[0].readable)
      << "peer close must surface as hangup or EOF-readable";
}

TEST_F(PollerTest, MultipleFdsReportIndependently) {
  int other[2];
  ASSERT_EQ(::pipe(other), 0);
  Poller poller;
  poller.add(read_fd(), true, false);
  poller.add(other[0], true, false);
  ASSERT_EQ(::write(other[1], "y", 1), 1);

  std::vector<PollEvent> events;
  ASSERT_EQ(poller.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, other[0]);
  ::close(other[0]);
  ::close(other[1]);
}

}  // namespace
}  // namespace fusecu
