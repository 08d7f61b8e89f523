// End-to-end loopback serving: a forked child process runs MatchServer,
// the parent drives it through MatchClient — round-trips, pipelining,
// per-request errors over the wire, and a graceful drain on shutdown.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/client.h"
#include "serve/server.h"

namespace rlbench::serve {
namespace {

// Fork a child that trains Magellan-DT on Ds7 and serves it; the bound
// port comes back over a pipe. Returns the child pid.
pid_t SpawnServer(uint16_t* port) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    // Child: build, train, serve, _exit (no gtest teardown in the child).
    close(fds[0]);
    auto task = datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5);
    matchers::MatchingContext context(&task);
    MatchServer server(&context, MatchServerOptions{});
    auto model = matchers::TrainServableMatcher("Magellan-DT", context);
    if (!model.ok() ||
        !server.service()
             .SwapModel(std::shared_ptr<const matchers::TrainedModel>(
                 std::move(*model)))
             .ok() ||
        !server.Start().ok()) {
      close(fds[1]);
      _exit(2);
    }
    SnapshotMetadata metadata;
    metadata.matcher_name = "Magellan-DT";
    metadata.dataset_id = task.name();
    metadata.version = 1;
    metadata.num_attrs = task.left().schema().num_attributes();
    server.SetServedModel(metadata);
    std::string note = std::to_string(server.port()) + "\n";
    if (write(fds[1], note.data(), note.size()) !=
        static_cast<ssize_t>(note.size())) {
      _exit(2);
    }
    close(fds[1]);
    Status served = server.Serve();
    _exit(served.ok() ? 0 : 3);
  }
  // Parent: read the port line.
  close(fds[1]);
  std::string line;
  char c;
  while (read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  close(fds[0]);
  if (line.empty()) return -1;
  *port = static_cast<uint16_t>(std::stoi(line));
  return pid;
}

TEST(NetE2eTest, FullClientServerSessionOverLoopback) {
  uint16_t port = 0;
  pid_t server = SpawnServer(&port);
  ASSERT_GT(server, 0);
  ASSERT_GT(port, 0);

  auto client = MatchClient::Connect(port);
  ASSERT_TRUE(client.ok()) << client.status();

  // Liveness + identity.
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->GetString("dataset"), "Ds7");
  EXPECT_EQ(ping->GetString("matcher"), "Magellan-DT");

  // Single pair, then the same pair inside a batch: identical bits across
  // the wire (scores travel as %.17g, which round-trips doubles exactly).
  auto single = client->MatchPair(0, 0);
  ASSERT_TRUE(single.ok()) << single.status();
  auto batch = client->MatchBatch({{0, 0}, {1, 1}, {2, 2}});
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ((*batch)[0].score, single->score);
  EXPECT_EQ((*batch)[0].decision, single->decision);

  // Pipelining: many requests written before any response is read; the
  // server coalesces them and answers in request order.
  const int kPipelined = 9;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client
                    ->SendRequest(MatchClient::MatchBatchRequest(
                        {{static_cast<uint32_t>(i), 0u}}))
                    .ok());
  }
  std::vector<double> pipelined;
  for (int i = 0; i < kPipelined; ++i) {
    auto response = client->RecvResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    pipelined.push_back(response->Find("scores")->AsArray()[0].AsNumber());
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto direct = client->MatchPair(static_cast<uint32_t>(i), 0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(direct->score, pipelined[i]) << i;  // order preserved
  }

  // Per-request errors cross the wire as typed Status codes.
  auto out_of_range = client->MatchPair(4000000000u, 0);
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  auto no_repo = client->Reload("Magellan-DT");
  EXPECT_EQ(no_repo.status().code(), StatusCode::kFailedPrecondition);

  // Served evaluation of the full test split.
  auto assess = client->Assess();
  ASSERT_TRUE(assess.ok()) << assess.status();
  EXPECT_GT(assess->GetNumber("pairs"), 0.0);
  EXPECT_GE(assess->GetNumber("f1"), 0.0);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetNumber("queue_depth"), 0.0);
  EXPECT_GT(stats->GetNumber("requests_served"), 0.0);

  // Graceful shutdown: acknowledged, then the process exits 0.
  auto shutdown = client->Shutdown();
  ASSERT_TRUE(shutdown.ok()) << shutdown.status();
  int wstatus = 0;
  ASSERT_EQ(waitpid(server, &wstatus, 0), server);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(NetE2eTest, MalformedTrafficGetsErrorResponsesNotCrashes) {
  uint16_t port = 0;
  pid_t server = SpawnServer(&port);
  ASSERT_GT(server, 0);

  // The server handles one connection at a time, so each client below is
  // scoped to close its connection before the next one is served.
  {
    auto client = MatchClient::Connect(port);
    ASSERT_TRUE(client.ok());
    // Unparseable JSON and unknown ops come back as InvalidArgument.
    auto bad_json = client->Call("this is not json");
    EXPECT_EQ(bad_json.status().code(), StatusCode::kInvalidArgument);
    auto bad_op = client->Call("{\"op\":\"explode\"}");
    EXPECT_EQ(bad_op.status().code(), StatusCode::kInvalidArgument);
    auto bad_pairs = client->Call("{\"op\":\"match_batch\",\"pairs\":[[1]]}");
    EXPECT_EQ(bad_pairs.status().code(), StatusCode::kInvalidArgument);
    // Pair elements must be JSON numbers: a string, null or bool is not
    // read as record 0.
    for (const char* element : {"\"a\"", "null", "true"}) {
      auto typed = client->Call(std::string("{\"op\":\"match_batch\",") +
                                "\"pairs\":[[" + element + ",1]]}");
      EXPECT_EQ(typed.status().code(), StatusCode::kInvalidArgument)
          << element;
    }
    // The connection (and server) survive all of it.
    EXPECT_TRUE(client->Ping().ok());
  }

  // A client that vanishes mid-session doesn't take the server down.
  {
    auto doomed = MatchClient::Connect(port);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed->SendRequest("{\"op\":\"ping\"}").ok());
  }  // dropped without reading the response

  auto survivor = MatchClient::Connect(port);
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor->Ping().ok());
  ASSERT_TRUE(survivor->Shutdown().ok());
  int wstatus = 0;
  ASSERT_EQ(waitpid(server, &wstatus, 0), server);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
}

}  // namespace
}  // namespace rlbench::serve
