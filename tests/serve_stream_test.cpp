#include <gtest/gtest.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.hpp"
#include "serve/plan_service.hpp"

/// JSONL round-trip acceptance for the planning service: the in-process
/// serve_stream() contract, and the real fusecu_serve binary end to end
/// (path injected by CMake, mirroring eval_obs_test).

#ifndef FUSECU_SERVE_BIN
#error "FUSECU_SERVE_BIN must be defined to the fusecu_serve binary path"
#endif

namespace fusecu {
namespace {

const char kRequests[] =
    "{\"id\":\"r1\",\"op\":\"matmul\",\"m\":1024,\"k\":768,\"l\":768,\"buffer\":\"512KB\"}\n"
    "\n"
    "{\"id\":\"r2\",\"op\":\"matmul\",\"m\":1024,\"k\":768,\"l\":768,\"buffer\":\"512KB\"}\n"
    "{\"id\":\"r3\",\"op\":\"fused_pair\",\"m\":1024,\"k\":64,\"l\":1024,\"n\":64,"
    "\"buffer_elems\":262144}\n"
    "{\"id\":\"r4\",\"op\":\"matmul\",\"m\":128,\"k\":64,\"l\":256,\"batch\":8,"
    "\"shared_weight\":true,\"buffer_elems\":65536}\n"
    "{\"id\":\"bad\",\"op\":\"matmul\",\"m\":128\n"
    "{\"id\":\"r5\",\"op\":\"matmul\",\"m\":64,\"k\":64,\"l\":64,\"buffer_elems\":1}\n";

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// An ok response line minus its id and with "cached" forced to false: the
/// plan bytes two answers to the same request must share.
std::string plan_bytes(const std::string& line) {
  std::string out = line.substr(line.find(','));
  const std::string hot = "\"cached\":true";
  const std::size_t at = out.find(hot);
  if (at != std::string::npos) out.replace(at, hot.size(), "\"cached\":false");
  return out;
}

/// Check the responses to kRequests; returns the parsed documents.
std::vector<JsonValuePtr> check_responses(const std::vector<std::string>& lines) {
  std::vector<JsonValuePtr> docs;
  for (const std::string& line : lines) {
    docs.push_back(parse_json(line));  // throws on any malformed response
  }
  EXPECT_EQ(docs.size(), 6u) << "one response per non-blank input line";
  if (docs.size() != 6u) return docs;

  EXPECT_EQ(docs[0]->get("id")->as_string(), "r1");
  EXPECT_TRUE(docs[0]->get("ok")->as_bool());
  EXPECT_EQ(docs[0]->get("kind")->as_string(), "matmul");
  EXPECT_GT(docs[0]->get("total_access")->as_number(), 0.0);
  EXPECT_FALSE(docs[0]->get("rule")->as_string().empty());
  EXPECT_EQ(docs[0]->get("per_tensor")->as_array().size(), 3u);

  // r2 repeats r1 exactly.  Lines are answered in order, so r1 misses and
  // r2 hits the plan r1 inserted: byte-identical plan bytes.
  EXPECT_EQ(docs[1]->get("id")->as_string(), "r2");
  EXPECT_FALSE(docs[0]->get("cached")->as_bool()) << lines[0];
  EXPECT_TRUE(docs[1]->get("cached")->as_bool()) << lines[1];
  EXPECT_EQ(plan_bytes(lines[1]), plan_bytes(lines[0]));

  EXPECT_EQ(docs[2]->get("id")->as_string(), "r3");
  EXPECT_TRUE(docs[2]->get("ok")->as_bool());
  EXPECT_EQ(docs[2]->get("kind")->as_string(), "fused_pair");
  EXPECT_TRUE(docs[2]->get("fusable")->as_bool());

  EXPECT_EQ(docs[3]->get("id")->as_string(), "r4");
  EXPECT_TRUE(docs[3]->get("ok")->as_bool());

  // The malformed line produces an error response in place, anchored to the
  // source and line of the stream; the stream itself keeps going.
  EXPECT_FALSE(docs[4]->get("ok")->as_bool());
  const std::string error = docs[4]->get("error")->as_string();
  EXPECT_NE(error.find(":6:"), std::string::npos) << error;
  EXPECT_NE(error.find("expected"), std::string::npos) << error;

  // Well-formed JSON with an impossible workload: error, id preserved.
  EXPECT_FALSE(docs[5]->get("ok")->as_bool());
  EXPECT_EQ(docs[5]->get("id")->as_string(), "r5");
  return docs;
}

TEST(ServeStream, InProcessRoundTrip) {
  PlanService service(ServeOptions{.threads = 2});
  std::istringstream in(kRequests);
  std::ostringstream out;
  const int n = service.serve_stream(in, out, "requests.jsonl");
  EXPECT_EQ(n, 6);
  std::istringstream replies(out.str());
  const std::vector<JsonValuePtr> docs = check_responses(read_lines(replies));
  ASSERT_EQ(docs.size(), 6u);
  EXPECT_NE(docs[4]->get("error")->as_string().find("requests.jsonl:6:"), std::string::npos);
}

TEST(ServeStream, BinaryPrintsUsageOnHelpAndUnknownOption) {
  const std::string out_path = testing::TempDir() + "serve_usage.txt";
  auto run = [&](const std::string& args) {
    const std::string cmd =
        std::string(FUSECU_SERVE_BIN) + " " + args + " > " + out_path + " 2>&1 < /dev/null";
    const int status = std::system(cmd.c_str());
    std::ifstream in(out_path);
    std::stringstream text;
    text << in.rdbuf();
    return std::make_pair(WIFEXITED(status) ? WEXITSTATUS(status) : -1, text.str());
  };
  const auto [help_code, help_text] = run("--help");
  EXPECT_EQ(help_code, 0);
  EXPECT_EQ(help_text.rfind("usage: fusecu_serve", 0), 0u) << help_text;

  const auto [bogus_code, bogus_text] = run("--bogus");
  EXPECT_EQ(bogus_code, 2);
  EXPECT_NE(bogus_text.find("unknown option: --bogus"), std::string::npos) << bogus_text;
  EXPECT_NE(bogus_text.find("usage: fusecu_serve"), std::string::npos) << bogus_text;
  EXPECT_EQ(bogus_text.find("FCU_CHECK"), std::string::npos) << bogus_text;

  struct OutOfRange {
    const char* args;
    const char* message;
  };
  for (const OutOfRange& c : std::initializer_list<OutOfRange>{
           {"--reactors 0", "--reactors must be at least 1, got 0"},
           {"--reactors -1", "--reactors must be at least 1, got -1"},
           {"--threads 0", "--threads must be at least 1, got 0"},
           {"--threads -5", "--threads must be at least 1, got -5"},
           {"--cache-mb -1", "--cache-mb must be at least 1, got -1"},
           {"--shards 0", "--shards must be at least 1, got 0"},
           {"--max-conns 0", "--max-conns must be at least 1, got 0"},
           {"--queue-depth 0", "--queue-depth must be at least 1, got 0"},
           {"--max-line-bytes 0", "--max-line-bytes must be at least 1, got 0"},
           {"--idle-timeout-ms -1", "--idle-timeout-ms must be at least 0, got -1"},
           {"--watchdog-ms -1", "--watchdog-ms must be at least 0, got -1"},
       }) {
    const auto [code, text] = run(c.args);
    EXPECT_EQ(code, 2) << c.args;
    EXPECT_NE(text.find(std::string("error: ") + c.message), std::string::npos) << text;
    EXPECT_NE(text.find("usage: fusecu_serve"), std::string::npos) << text;
    EXPECT_EQ(text.find("FCU_CHECK"), std::string::npos) << text;
  }
}

TEST(ServeStream, BinaryEndToEnd) {
  const std::string input_path = testing::TempDir() + "serve_requests.jsonl";
  const std::string output_path = testing::TempDir() + "serve_responses.jsonl";
  {
    std::ofstream out(input_path);
    out << kRequests;
  }
  const std::string cmd = std::string(FUSECU_SERVE_BIN) + " --input " + input_path +
                          " --threads 2 --cache-mb 16 > " + output_path;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream replies(output_path);
  ASSERT_TRUE(replies.is_open());
  const std::vector<JsonValuePtr> docs = check_responses(read_lines(replies));
  ASSERT_EQ(docs.size(), 6u);
  EXPECT_NE(docs[4]->get("error")->as_string().find(":6:"), std::string::npos);
}

TEST(ServeStream, BinaryRefusesLinesPastThePlanLimits) {
  // batch * m wraps to a positive Index (it killed the server with SIGFPE),
  // and m * k * l wraps to 0 (it was answered with a zero total).  Each is
  // refused by a field rule, the server keeps going, and exits 0.
  const std::string input_path = testing::TempDir() + "serve_limits.jsonl";
  const std::string output_path = testing::TempDir() + "serve_limits_out.jsonl";
  {
    std::ofstream out(input_path);
    out << R"({"id":"x","op":"matmul","m":5,"k":159,"l":30,"buffer_elems":5,)"
           R"("batch":4611686018427387904,"shared_weight":true})"
        << "\n"
        << R"({"id":"z","op":"matmul","m":4294967296,"k":4294967296,"l":4294967296,)"
           R"("buffer_elems":1000})"
        << "\n"
        << R"({"id":"good","op":"matmul","m":64,"k":64,"l":64,"buffer_elems":4096})"
        << "\n";
  }
  const std::string cmd =
      std::string(FUSECU_SERVE_BIN) + " --input " + input_path + " > " + output_path;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  ASSERT_EQ(WEXITSTATUS(status), 0) << cmd;

  std::ifstream replies(output_path);
  const std::vector<std::string> lines = read_lines(replies);
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    const JsonValuePtr doc = parse_json(lines[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(doc->get("ok")->as_bool()) << lines[static_cast<std::size_t>(i)];
    EXPECT_NE(doc->get("error")->as_string().find("too large to plan"), std::string::npos)
        << lines[static_cast<std::size_t>(i)];
  }
  const JsonValuePtr good = parse_json(lines[2]);
  EXPECT_TRUE(good->get("ok")->as_bool()) << lines[2];
  EXPECT_EQ(good->get("id")->as_string(), "good");
}

/// fusecu_serve on a pair of pipes: the test writes its stdin and reads its
/// stdout.  Killed and reaped on destruction if it is still running.
class LiveServe {
 public:
  LiveServe() {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) close(fd);
      execl(FUSECU_SERVE_BIN, FUSECU_SERVE_BIN, "--threads", "2", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
  }

  ~LiveServe() {
    close_stdin();
    if (out_ >= 0) close(out_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  bool started() const { return pid_ > 0 && in_ >= 0 && out_ >= 0; }

  bool write_line(const std::string& line) {
    const std::string framed = line + "\n";
    return write(in_, framed.data(), framed.size()) == static_cast<ssize_t>(framed.size());
  }

  /// The next stdout line, or nullopt if none completes within \p timeout.
  std::optional<std::string> read_line(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd pfd{out_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(out_, chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close_stdin() {
    if (in_ >= 0) close(in_);
    in_ = -1;
  }

  /// Exit status after stdin closed; -1 if it did not exit cleanly.
  int wait_exit() {
    int status = 0;
    if (waitpid(pid_, &status, 0) != pid_) return -1;
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buf_;
};

TEST(ServeStream, BinaryAnswersEachLineWhileStdinStaysOpen) {
  // A client that keeps stdin open must read each answer before it writes
  // the next line: nothing may wait for EOF.
  std::signal(SIGPIPE, SIG_IGN);  // a dead server fails the writes, not the test process
  LiveServe serve;
  ASSERT_TRUE(serve.started());
  constexpr std::chrono::seconds kTimeout(5);

  ASSERT_TRUE(serve.write_line(
      R"({"id":"first","op":"matmul","m":384,"k":256,"l":320,"buffer":"512KB"})"));
  const std::optional<std::string> first = serve.read_line(kTimeout);
  ASSERT_TRUE(first.has_value()) << "no answer to the first line while stdin is open";
  EXPECT_EQ(first->rfind(R"({"id":"first","ok":true)", 0), 0u) << *first;

  ASSERT_TRUE(serve.write_line(
      R"({"id":"second","op":"fused_pair","m":512,"k":64,"l":512,"n":64,"buffer":"512KB"})"));
  const std::optional<std::string> second = serve.read_line(kTimeout);
  ASSERT_TRUE(second.has_value()) << "no answer to the second line while stdin is open";
  EXPECT_EQ(second->rfind(R"({"id":"second","ok":true)", 0), 0u) << *second;

  serve.close_stdin();
  EXPECT_FALSE(serve.read_line(kTimeout).has_value()) << "no answer without a request";
  EXPECT_EQ(serve.wait_exit(), 0);
}

}  // namespace
}  // namespace fusecu
