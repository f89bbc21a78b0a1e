// End-to-end serving-layer tests: a real MonkeyServer on an ephemeral
// port (MemEnv-backed DB), talked to over real sockets with the blocking
// RespClient. Covers command semantics, pipelined ordering
// (read-your-own-writes within one batch), MGET reassembly, engine-call
// batching, the spread of connections over event loops and cross-loop
// visibility, concurrent clients against an oracle, slow-client
// backpressure (pause and hard-limit close), protocol-error handling,
// input split across many small sends, HTTP /metrics, INFO, and Stop.

#include "server/server.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "obs/event_listener.h"
#include "server/resp_client.h"

namespace monkeydb {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts) {
    env_ = NewMemEnv();
    opts.server_port = 0;  // Ephemeral; server_->port() has the real one.
    opts.db_options.env = env_.get();
    ASSERT_TRUE(
        MonkeyServer::Start(opts, "/server", &server_).ok());
  }

  // threads 0 = the default, one event loop per hardware thread.
  void StartServer(int threads = 0) {
    ServerOptions opts;
    opts.server_threads = threads;
    StartServer(opts);
  }

  Status Connect(RespClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  // Polls until pred() holds or ~5s pass (event loops are asynchronous).
  template <typename Pred>
  bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<MonkeyServer> server_;
};

TEST_F(ServerTest, BasicCommands) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;

  ASSERT_TRUE(c.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "PONG");

  ASSERT_TRUE(c.Command({"PING", "hello"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_EQ(r.str, "hello");

  ASSERT_TRUE(c.Command({"ECHO", "x"}, &r).ok());
  EXPECT_EQ(r.str, "x");

  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "OK");

  ASSERT_TRUE(c.Command({"GET", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_EQ(r.str, "v");

  ASSERT_TRUE(c.Command({"GET", "missing"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);

  ASSERT_TRUE(c.Command({"EXISTS", "k", "missing", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kInteger);
  EXPECT_EQ(r.integer, 2);

  ASSERT_TRUE(c.Command({"DEL", "k", "missing"}, &r).ok());
  EXPECT_EQ(r.integer, 1);

  ASSERT_TRUE(c.Command({"GET", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);

  ASSERT_TRUE(c.Command({"MSET", "a", "1", "b", "2"}, &r).ok());
  EXPECT_EQ(r.str, "OK");

  ASSERT_TRUE(c.Command({"MGET", "a", "missing", "b"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 3u);
  EXPECT_EQ(r.elements[0].str, "1");
  EXPECT_EQ(r.elements[1].type, RespReply::Type::kNull);
  EXPECT_EQ(r.elements[2].str, "2");

  // Binary-safe round trip.
  const std::string binary("\x00\x01\r\n\xff", 5);
  ASSERT_TRUE(c.Command({"SET", "bin", binary}, &r).ok());
  ASSERT_TRUE(c.Command({"GET", "bin"}, &r).ok());
  EXPECT_EQ(r.str, binary);

  ASSERT_TRUE(c.Command({"CONFIG", "GET", "server_threads"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 2u);
  EXPECT_EQ(r.elements[0].str, "server_threads");
  EXPECT_EQ(r.elements[1].str, std::to_string(server_->threads()));
  EXPECT_GE(server_->threads(), 1);

  ASSERT_TRUE(c.Command({"SELECT", "0"}, &r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.Command({"SELECT", "3"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);

  ASSERT_TRUE(c.Command({"NOSUCHCMD", "x"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("unknown command"), std::string::npos);

  ASSERT_TRUE(c.Command({"GET"}, &r).ok());  // Arity violation.
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("wrong number of arguments"), std::string::npos);

  // MSET with an unpaired key: arity error, nothing applied.
  ASSERT_TRUE(c.Command({"MSET", "x", "1", "orphan"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  ASSERT_TRUE(c.Command({"GET", "x"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);
}

// The pipelining contract: a mixed batch executes with per-connection
// ordering — a GET after a SET of the same key (same pipeline) must see
// that SET, and replies come back in command order.
TEST_F(ServerTest, PipelinedMixedBatchPreservesOrder) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  std::string batch;
  RespClient::EncodeCommand({"SET", "a", "1"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"SET", "a", "2"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"DEL", "a"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"PING"}, &batch);
  ASSERT_TRUE(c.SendRaw(batch).ok());

  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "1");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "2");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.integer, 1);
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "PONG");
}

// Pipelined commands must coalesce into far fewer engine calls — the
// serving layer's acceptance metric is <= 0.2 calls/command at depth 16.
TEST_F(ServerTest, PipeliningBatchesEngineCalls) {
  StartServer(4);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Warm up: the counters include nothing else on a fresh server.
  constexpr int kKeys = 160;
  std::string batch;
  for (int i = 0; i < kKeys; ++i) {
    RespClient::EncodeCommand(
        {"SET", "key" + std::to_string(i), "v" + std::to_string(i)},
        &batch);
  }
  for (int i = 0; i < kKeys; ++i) {
    RespClient::EncodeCommand({"GET", "key" + std::to_string(i)}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());
  RespReply r;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok());
    EXPECT_EQ(r.str, "OK");
  }
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok());
    EXPECT_EQ(r.str, "v" + std::to_string(i));
  }

  const auto calls = server_->engine_calls();
  const uint64_t commands = server_->commands_processed();
  EXPECT_EQ(commands, 2u * kKeys);
  // TCP may split the batch across several ticks; even pessimistically
  // (a few ticks, one engine call per class run each) the coalescing
  // must beat 0.2 calls/command by a wide margin against the
  // 320-command batch.
  EXPECT_LE(calls.Total(), commands / 5)
      << "point_gets=" << calls.point_gets
      << " multigets=" << calls.multigets << " writes=" << calls.writes;
}

// Connections opened one after another go to the loop with the fewest
// connections, so K of them on a K-loop server land on K distinct loops.
TEST_F(ServerTest, ConnectionsSpreadOverLoops) {
  constexpr int kLoops = 4;
  StartServer(kLoops);
  RespClient clients[kLoops];
  RespReply r;
  for (RespClient& c : clients) {
    ASSERT_TRUE(Connect(&c).ok());
    ASSERT_TRUE(c.Command({"PING"}, &r).ok());  // Accepted and adopted.
  }
  EXPECT_EQ(server_->LoopConnectionsForTesting(),
            std::vector<size_t>(kLoops, 1));
  EXPECT_EQ(server_->live_connections(), static_cast<size_t>(kLoops));
}

// Every loop serves the one DB: a write acked on one loop is visible to
// a read on another, and MGET reassembles values in request order.
TEST_F(ServerTest, WritesAreVisibleAcrossLoops) {
  StartServer(2);
  RespClient writer, reader;
  RespReply r;
  ASSERT_TRUE(Connect(&writer).ok());
  ASSERT_TRUE(writer.Command({"PING"}, &r).ok());
  ASSERT_TRUE(Connect(&reader).ok());
  ASSERT_TRUE(reader.Command({"PING"}, &r).ok());
  ASSERT_EQ(server_->LoopConnectionsForTesting(),
            (std::vector<size_t>{1, 1}));

  for (int i = 0; i < 64; ++i) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(writer.Command({"SET", key, "v" + std::to_string(i)}, &r)
                    .ok());
    ASSERT_EQ(r.str, "OK");
    ASSERT_TRUE(reader.Command({"GET", key}, &r).ok());
    EXPECT_EQ(r.str, "v" + std::to_string(i));
  }
  std::string value;
  ASSERT_TRUE(server_->db()->Get(ReadOptions(), "route7", &value).ok());
  EXPECT_EQ(value, "v7");
  EXPECT_EQ(server_->shard_db(0), server_->db());

  std::vector<std::string> mget = {"MGET"};
  for (int i = 63; i >= 0; --i) mget.push_back("route" + std::to_string(i));
  ASSERT_TRUE(reader.Command(mget, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(r.elements[static_cast<size_t>(i)].str,
              "v" + std::to_string(63 - i));
  }
}

// Eight clients run GET/SET/DEL/MGET/SCAN at once, each on its own key
// prefix, pipelining up to four commands; every reply must match the
// client's own oracle of its keys.
TEST_F(ServerTest, ConcurrentClientsMatchOracle) {
  StartServer(4);
  constexpr int kClients = 8;
  constexpr int kRounds = 150;
  constexpr int kKeysPerClient = 16;
  std::vector<std::string> errors(kClients);
  auto client_main = [&](int id) {
    std::string& error = errors[static_cast<size_t>(id)];
    RespClient c;
    if (!Connect(&c).ok()) {
      error = "connect failed";
      return;
    }
    const std::string prefix = "c" + std::to_string(id) + ":";
    std::map<std::string, std::string> oracle;
    uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(id + 1);
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    auto key = [&] { return prefix + std::to_string(next() % kKeysPerClient); };
    auto fail = [&](const std::string& what) {
      if (error.empty()) error = prefix + " " + what;
    };
    for (int round = 0; round < kRounds && error.empty(); ++round) {
      // A pipeline of 1-4 commands, each checked against the oracle as
      // it stood after the commands before it. DEL leads its pipeline:
      // its count is taken before the rest of its write run commits.
      const int depth = 1 + static_cast<int>(next() % 4);
      std::string batch;
      std::vector<std::vector<std::string>> sent;
      for (int k = 0; k < depth; ++k) {
        switch (next() % 4) {
          case 0:
            sent.push_back({"GET", key()});
            break;
          case 1:
            sent.push_back({"SET", key(), "v" + std::to_string(next())});
            break;
          case 2:
            if (k == 0) {
              const std::string a = key();
              std::string b = key();
              if (b == a) b = prefix + "other";
              sent.push_back({"DEL", a, b});
              break;
            }
            [[fallthrough]];
          default:
            sent.push_back({"MGET", key(), key(), key()});
            break;
        }
        RespClient::EncodeCommand(sent.back(), &batch);
      }
      if (!c.SendRaw(batch).ok()) return fail("send");
      for (const auto& cmd : sent) {
        RespReply r;
        if (!c.ReadReply(&r).ok()) return fail("read");
        if (cmd[0] == "GET") {
          auto it = oracle.find(cmd[1]);
          if (it == oracle.end() ? r.type != RespReply::Type::kNull
                                 : r.str != it->second) {
            return fail("GET " + cmd[1]);
          }
        } else if (cmd[0] == "SET") {
          if (r.str != "OK") return fail("SET " + cmd[1]);
          oracle[cmd[1]] = cmd[2];
        } else if (cmd[0] == "DEL") {
          long long expect = 0;
          for (size_t a = 1; a < cmd.size(); ++a) {
            expect += oracle.count(cmd[a]) > 0 ? 1 : 0;
          }
          for (size_t a = 1; a < cmd.size(); ++a) oracle.erase(cmd[a]);
          if (r.integer != expect) return fail("DEL " + cmd[1]);
        } else {
          if (r.elements.size() != cmd.size() - 1) return fail("MGET size");
          for (size_t a = 1; a < cmd.size(); ++a) {
            auto it = oracle.find(cmd[a]);
            const RespReply& e = r.elements[a - 1];
            if (it == oracle.end() ? e.type != RespReply::Type::kNull
                                   : e.str != it->second) {
              return fail("MGET " + cmd[a]);
            }
          }
        }
      }
      if (round % 25 == 24) {
        std::set<std::string> seen;
        std::string cursor = "0";
        do {
          RespReply r;
          if (!c.Command({"SCAN", cursor, "MATCH", prefix + "*", "COUNT",
                          "7"},
                         &r)
                   .ok() ||
              r.elements.size() != 2) {
            return fail("SCAN");
          }
          cursor = r.elements[0].str;
          for (const RespReply& k : r.elements[1].elements) {
            seen.insert(k.str);
          }
        } while (cursor != "0");
        std::set<std::string> expect;
        for (const auto& kv : oracle) expect.insert(kv.first);
        if (seen != expect) return fail("SCAN contents");
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) threads.emplace_back(client_main, i);
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
}

TEST_F(ServerTest, ScanReturnsEveryKeyExactlyOnce) {
  StartServer(4);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  RespReply r;
  std::set<std::string> expect;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "scan%03d", i);
    ASSERT_TRUE(c.Command({"SET", key, "x"}, &r).ok());
    expect.insert(key);
  }

  std::set<std::string> seen;
  std::string cursor = "0";
  int rounds = 0;
  do {
    ASSERT_TRUE(
        c.Command({"SCAN", cursor, "COUNT", "50"}, &r).ok());
    ASSERT_EQ(r.type, RespReply::Type::kArray);
    ASSERT_EQ(r.elements.size(), 2u);
    cursor = r.elements[0].str;
    for (const RespReply& key : r.elements[1].elements) {
      EXPECT_TRUE(seen.insert(key.str).second)
          << key.str << " returned twice";
    }
    ASSERT_LT(++rounds, 100) << "SCAN failed to terminate";
  } while (cursor != "0");
  EXPECT_EQ(seen, expect);

  // MATCH filters server-side.
  ASSERT_TRUE(c.Command({"SCAN", "0", "MATCH", "scan00?", "COUNT",
                         "1000"}, &r).ok());
  std::set<std::string> matched;
  for (const RespReply& key : r.elements[1].elements) {
    matched.insert(key.str);
  }
  EXPECT_EQ(matched.size(), 10u);
}

// Above the soft output limit the server must stop reading from the
// connection (backpressure) instead of buffering without bound — and
// still deliver every reply once the client drains.
TEST_F(ServerTest, SlowClientBackpressurePausesReads) {
  ServerOptions opts;
  opts.server_max_pipeline = 2;  // Small ticks: backlog grows gradually.
  opts.server_output_soft_limit_bytes = 1u << 20;
  opts.server_output_hard_limit_bytes = 256u << 20;
  StartServer(opts);

  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  // Modest receive window so replies back up in the server rather than
  // the kernel (but not so small — below one MSS — that the later drain
  // crawls; the 16 MiB burst dwarfs tcp_wmem's 4 MB cap either way).
  const int rcvbuf = 64 << 10;
  setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  const std::string big(1u << 20, 'x');
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "big", big}, &r).ok());
  ASSERT_EQ(r.str, "OK");

  constexpr int kGets = 16;  // 16 MiB of replies vs a 1 MiB soft limit.
  std::string batch;
  for (int i = 0; i < kGets; ++i) {
    RespClient::EncodeCommand({"GET", "big"}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  // Without reading a byte, the server must hit the pause.
  ASSERT_TRUE(WaitFor([&] {
    return server_->metrics()->TickTotal(
               Tick::kServerBackpressurePauses) > 0;
  }));

  // Drain: every reply arrives intact, in order.
  for (int i = 0; i < kGets; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok()) << "reply " << i;
    ASSERT_EQ(r.type, RespReply::Type::kBulk);
    EXPECT_EQ(r.str.size(), big.size()) << "reply " << i;
  }
  EXPECT_EQ(r.str, big);
}

// Past the hard limit the connection is dropped outright.
TEST_F(ServerTest, HardOutputLimitClosesConnection) {
  ServerOptions opts;
  opts.server_output_soft_limit_bytes = 1u << 20;
  opts.server_output_hard_limit_bytes = 4u << 20;
  StartServer(opts);

  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  const int rcvbuf = 64 << 10;
  setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  const std::string big(1u << 20, 'y');
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "big", big}, &r).ok());

  // One tick's worth of replies (16 MiB) blows straight past the 4 MiB
  // hard limit.
  std::string batch;
  for (int i = 0; i < 16; ++i) {
    RespClient::EncodeCommand({"GET", "big"}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  ASSERT_TRUE(WaitFor([&] {
    return server_->metrics()->TickTotal(Tick::kServerOverlimitCloses) >
           0;
  }));
  // The client eventually observes the close (possibly after reading the
  // replies that were already flushed into socket buffers).
  Status s;
  for (int i = 0; i < 64 && s.ok(); ++i) {
    s = c.ReadReply(&r);
  }
  EXPECT_FALSE(s.ok());
}

TEST_F(ServerTest, ProtocolErrorRepliesAndCloses) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Multibulk args must be bulk strings; '+' is a protocol violation.
  ASSERT_TRUE(c.SendRaw("*1\r\n+PING\r\n").ok());
  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("Protocol error"), std::string::npos) << r.str;
  // The server closes after the error reply.
  EXPECT_FALSE(c.ReadReply(&r).ok());
  EXPECT_EQ(server_->metrics()->TickTotal(Tick::kServerProtocolErrors),
            1u);

  // A fresh connection still works: the failure was contained.
  RespClient c2;
  ASSERT_TRUE(Connect(&c2).ok());
  ASSERT_TRUE(c2.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.str, "PONG");
}

TEST_F(ServerTest, HttpMetricsEndpoint) {
  StartServer(2);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());

  RespClient http;
  ASSERT_TRUE(Connect(&http).ok());
  ASSERT_TRUE(http.SendRaw("GET /metrics HTTP/1.0\r\n\r\n").ok());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(http.fd(), buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("monkeydb_gets_total"), std::string::npos);
  EXPECT_NE(response.find("monkey_predicted_fpr"), std::string::npos);
  EXPECT_NE(response.find("monkey_server_commands_total"),
            std::string::npos);
  EXPECT_NE(response.find("monkey_server_threads 2"), std::string::npos);

  // Unknown paths 404; RESP still works on the same port afterwards.
  RespClient http2;
  ASSERT_TRUE(Connect(&http2).ok());
  ASSERT_TRUE(http2.SendRaw("GET /nope HTTP/1.0\r\n\r\n").ok());
  response.clear();
  while ((n = ::recv(http2.fd(), buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("404"), std::string::npos);
  ASSERT_TRUE(c.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.str, "PONG");
}

TEST_F(ServerTest, InfoReportsThreadsAndEngine) {
  StartServer(2);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  ASSERT_TRUE(c.Command({"INFO"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_NE(r.str.find("server_threads:2"), std::string::npos);
  EXPECT_NE(r.str.find("# Engine"), std::string::npos);
  EXPECT_NE(r.str.find("memtable_entries:1"), std::string::npos);
  EXPECT_NE(r.str.find("write_group_batches:"), std::string::npos);
  // MemEnv has no io_uring; the INFO line must say so, not vanish.
  EXPECT_NE(r.str.find("io_uring_active:0"), std::string::npos);
  EXPECT_NE(r.str.find("engine_calls_per_command:"), std::string::npos);
}

TEST_F(ServerTest, QuitFlushesAndCloses) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  std::string batch;
  RespClient::EncodeCommand({"SET", "q", "1"}, &batch);
  RespClient::EncodeCommand({"GET", "q"}, &batch);
  RespClient::EncodeCommand({"QUIT"}, &batch);
  ASSERT_TRUE(c.SendRaw(batch).ok());
  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "1");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  EXPECT_FALSE(c.ReadReply(&r).ok());  // Closed after the flush.
}

TEST_F(ServerTest, StopIsIdempotentAndCountersSurvive) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  server_->Stop();
  server_->Stop();
  EXPECT_GE(server_->commands_processed(), 1u);
  EXPECT_GE(server_->engine_calls().writes, 1u);
}

// A 1 MiB value and a 200-command pipeline trickling in through many
// small sends still parse and round-trip: every recv appends only what
// arrived, and a command split anywhere waits for its remainder.
TEST_F(ServerTest, InputSplitAcrossManySmallSendsRoundTrips) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  const int one = 1;
  setsockopt(c.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string big(1u << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 23);
  }
  std::string wire;
  RespClient::EncodeCommand({"SET", "big", big}, &wire);
  constexpr int kPipeline = 200;
  for (int i = 0; i < kPipeline; ++i) {
    if (i % 2 == 0) {
      RespClient::EncodeCommand({"SET", "p" + std::to_string(i),
                                 "v" + std::to_string(i)},
                                &wire);
    } else {
      RespClient::EncodeCommand({"GET", "p" + std::to_string(i - 1)}, &wire);
    }
  }
  RespClient::EncodeCommand({"GET", "big"}, &wire);
  // 4 KiB through the value, then 7-byte pieces that split the pipeline
  // mid-token.
  size_t pos = 0;
  while (pos < wire.size()) {
    const size_t n = std::min<size_t>(pos < big.size() ? 4096 : 7,
                                      wire.size() - pos);
    ASSERT_TRUE(c.SendRaw(wire.substr(pos, n)).ok());
    pos += n;
  }

  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  for (int i = 0; i < kPipeline; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok()) << "reply " << i;
    if (i % 2 == 0) {
      EXPECT_EQ(r.str, "OK");
    } else {
      EXPECT_EQ(r.str, "v" + std::to_string(i - 1));
    }
  }
  ASSERT_TRUE(c.ReadReply(&r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_TRUE(r.str == big);
}

size_t CountOpenFds() {
  size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

// Holds the first flush until Release: parks the loop that runs it.
class FlushGate : public EventListener {
 public:
  void OnFlushBegin(const FlushJobInfo&) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Stop while accepted sockets sit in a loop's inbox, never adopted: they
// are closed with the loop, not leaked.
TEST_F(ServerTest, StopClosesSocketsLeftInAnInbox) {
  auto gate = std::make_shared<FlushGate>();
  ServerOptions opts;
  opts.server_threads = 2;
  opts.db_options.buffer_size_bytes = 4096;
  opts.db_options.listeners.push_back(gate);
  const size_t fds_before = CountOpenFds();
  StartServer(opts);
  {
    RespClient idle, blocker;
    RespReply r;
    ASSERT_TRUE(Connect(&idle).ok());
    ASSERT_TRUE(idle.Command({"PING"}, &r).ok());
    ASSERT_TRUE(Connect(&blocker).ok());
    ASSERT_TRUE(blocker.Command({"PING"}, &r).ok());
    ASSERT_EQ(server_->LoopConnectionsForTesting(),
              (std::vector<size_t>{1, 1}));
    // A SET past the 4 KiB buffer flushes on loop 1's thread, which the
    // gate then holds: loop 1 cannot adopt what it is handed next.
    std::string wire;
    RespClient::EncodeCommand({"SET", "k", std::string(8192, 'x')}, &wire);
    ASSERT_TRUE(blocker.SendRaw(wire).ok());
    ASSERT_TRUE(gate->WaitEntered());

    RespClient waiting[4];
    for (RespClient& w : waiting) ASSERT_TRUE(Connect(&w).ok());
    // Loop 0 adopts two; the other two wait in loop 1's inbox.
    ASSERT_TRUE(WaitFor([&] {
      return server_->LoopConnectionsForTesting() ==
             std::vector<size_t>{3, 3};
    }));
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      gate->Release();
    });
    server_->Stop();
    releaser.join();
  }
  // The listener, the loops' epoll and eventfds and every accepted
  // socket are closed, and so are the clients'.
  EXPECT_EQ(CountOpenFds(), fds_before);
}

// The DB lives in <data_dir>/shard-0, where a single-shard server kept
// it, so such a data dir reopens with its keys; a data dir that also
// holds a shard-1 is refused.
TEST_F(ServerTest, ReopensShardZeroAndRefusesShardedDataDir) {
  StartServer(2);
  {
    RespClient c;
    ASSERT_TRUE(Connect(&c).ok());
    RespReply r;
    ASSERT_TRUE(c.Command({"SET", "kept", "1"}, &r).ok());
  }
  server_.reset();
  EXPECT_TRUE(env_->FileExists("/server/shard-0/MANIFEST"));

  ServerOptions opts;
  opts.server_port = 0;
  opts.db_options.env = env_.get();
  ASSERT_TRUE(MonkeyServer::Start(opts, "/server", &server_).ok());
  {
    RespClient c;
    ASSERT_TRUE(Connect(&c).ok());
    RespReply r;
    ASSERT_TRUE(c.Command({"GET", "kept"}, &r).ok());
    EXPECT_EQ(r.str, "1");
  }
  server_.reset();

  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/server/shard-1/MANIFEST", &f).ok());
  ASSERT_TRUE(f->Close().ok());
  const Status s = MonkeyServer::Start(opts, "/server", &server_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace monkeydb
