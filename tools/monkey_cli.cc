// monkey_cli: a minimal RESP client for poking monkey_server.
//
//   monkey_cli [--host H] [--port P] SET k v        one command
//   monkey_cli --pipeline 100 SET k v               same command, pipelined
//   monkey_cli PING                                 liveness check
//   monkey_cli --slowlog [n]                        SLOWLOG GET, pretty
//   monkey_cli --trace [ms]                         TRACE TREE, span text
//
// With --pipeline N the command is encoded N times, sent as one write,
// and the N replies are read back (only the last is printed) — a direct
// probe of the server's per-tick coalescing. --slowlog renders each
// entry's id/time/duration/args header and its captured span tree
// (DESIGN.md §14); --trace prints the server's flight-recorder contents
// as an indented span forest.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/resp_client.h"

namespace {

using monkeydb::RespClient;
using monkeydb::RespReply;
using monkeydb::Status;

// True when s is all digits (an optional value for --slowlog/--trace).
bool IsNumber(const char* s) {
  if (*s == '\0') return false;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
  }
  return true;
}

int Fail(const Status& s) {
  fprintf(stderr, "monkey_cli: %s\n", s.ToString().c_str());
  return 1;
}

// SLOWLOG GET reply: array of [id, unix_secs, duration_us, args..., tree].
int PrintSlowlog(const RespReply& reply) {
  if (reply.type == RespReply::Type::kError) {
    fprintf(stderr, "monkey_cli: %s\n", reply.str.c_str());
    return 1;
  }
  if (reply.type != RespReply::Type::kArray) {
    printf("%s\n", reply.ToString().c_str());
    return 0;
  }
  if (reply.elements.empty()) {
    printf("(empty slowlog)\n");
    return 0;
  }
  for (const RespReply& e : reply.elements) {
    if (e.type != RespReply::Type::kArray || e.elements.size() < 5) {
      printf("%s\n", e.ToString().c_str());
      continue;
    }
    std::string cmdline;
    for (const RespReply& a : e.elements[3].elements) {
      if (!cmdline.empty()) cmdline += ' ';
      cmdline += a.str;
    }
    printf("#%lld  %.3f ms  at %lld  %s\n", e.elements[0].integer,
           static_cast<double>(e.elements[2].integer) / 1000.0,
           e.elements[1].integer, cmdline.c_str());
    const std::string& tree = e.elements[4].str;
    if (!tree.empty()) printf("%s", tree.c_str());
    printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 6380;
  int pipeline = 1;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s requires a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (args.empty() && arg == "--host") {
      host = next("--host");
    } else if (args.empty() && arg == "--port") {
      port = atoi(next("--port"));
    } else if (args.empty() && arg == "--pipeline") {
      pipeline = atoi(next("--pipeline"));
      if (pipeline < 1) {
        fprintf(stderr, "--pipeline must be >= 1\n");
        return 2;
      }
    } else if (args.empty() && arg == "--slowlog") {
      // --slowlog [n]: SLOWLOG GET n, pretty-printed with span trees.
      std::vector<std::string> cmd = {"SLOWLOG", "GET"};
      if (i + 1 < argc && IsNumber(argv[i + 1])) cmd.push_back(argv[++i]);
      RespClient client;
      Status s = client.Connect(host, port);
      if (!s.ok()) return Fail(s);
      RespReply reply;
      s = client.Command(cmd, &reply);
      if (!s.ok()) return Fail(s);
      return PrintSlowlog(reply);
    } else if (args.empty() && arg == "--trace") {
      // --trace [ms]: TRACE TREE [ms], printed verbatim.
      std::vector<std::string> cmd = {"TRACE", "TREE"};
      if (i + 1 < argc && IsNumber(argv[i + 1])) cmd.push_back(argv[++i]);
      RespClient client;
      Status s = client.Connect(host, port);
      if (!s.ok()) return Fail(s);
      RespReply reply;
      s = client.Command(cmd, &reply);
      if (!s.ok()) return Fail(s);
      if (reply.type == RespReply::Type::kError) {
        fprintf(stderr, "monkey_cli: %s\n", reply.str.c_str());
        return 1;
      }
      printf("%s", reply.str.c_str());
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    fprintf(stderr,
            "usage: monkey_cli [--host H] [--port P] [--pipeline N] "
            "COMMAND [ARG...]\n"
            "       monkey_cli [--host H] [--port P] --slowlog [n]\n"
            "       monkey_cli [--host H] [--port P] --trace [ms]\n");
    return 2;
  }

  RespClient client;
  Status s = client.Connect(host, port);
  if (!s.ok()) return Fail(s);
  std::string batch;
  for (int i = 0; i < pipeline; ++i) {
    RespClient::EncodeCommand(args, &batch);
  }
  s = client.SendRaw(batch);
  if (!s.ok()) return Fail(s);
  RespReply reply;
  for (int i = 0; i < pipeline; ++i) {
    s = client.ReadReply(&reply);
    if (!s.ok()) return Fail(s);
  }
  printf("%s\n", reply.ToString().c_str());
  return reply.type == RespReply::Type::kError ? 1 : 0;
}
