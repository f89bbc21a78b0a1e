// monkey_server: the standalone RESP server binary (README quick start:
//   monkey_server --port 6380 --threads 4 --data-dir /tmp/monkeydb
// then talk to it with redis-cli, tools/monkey_cli, or curl /metrics).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void HandleSignal(int) { g_signalled = 1; }

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--port N] [--threads N] [--bind ADDR]\n"
          "          [--data-dir PATH] [--max-pipeline N]\n"
          "          [--engine-metrics] [--no-metrics]\n"
          "          [--slowlog-us N] [--trace-sample R]\n"
          "\n"
          "  --port N          listen port (default 6380; 0 = ephemeral)\n"
          "  --threads N       event-loop threads serving the one DB\n"
          "                    (default 0 = one per hardware thread)\n"
          "  --bind ADDR       bind address (default 127.0.0.1)\n"
          "  --data-dir PATH   database root; the DB lives in\n"
          "                    PATH/shard-0 (default ./monkeydb-data)\n"
          "  --max-pipeline N  commands coalesced per tick (default 1024)\n"
          "  --engine-metrics  enable the engine histograms too\n"
          "  --no-metrics      disable the server metrics registry\n"
          "  --slowlog-us N    log runs slower than N microseconds, with\n"
          "                    their span trees (SLOWLOG GET; default off)\n"
          "  --trace-sample R  head-sample requests into the flight\n"
          "                    recorder at rate R in [0,1] (TRACE, /trace;\n"
          "                    MONKEYDB_TRACE_SAMPLE overrides; default 0)\n",
          argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using monkeydb::MonkeyServer;
  using monkeydb::ServerOptions;
  using monkeydb::Status;

  ServerOptions opts;
  std::string data_dir = "./monkeydb-data";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s requires a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      opts.server_port = atoi(next("--port"));
    } else if (arg == "--threads") {
      opts.server_threads = atoi(next("--threads"));
    } else if (arg == "--bind") {
      opts.server_bind = next("--bind");
    } else if (arg == "--data-dir") {
      data_dir = next("--data-dir");
    } else if (arg == "--max-pipeline") {
      opts.server_max_pipeline = atoi(next("--max-pipeline"));
    } else if (arg == "--engine-metrics") {
      opts.db_options.enable_metrics = true;
    } else if (arg == "--no-metrics") {
      opts.server_enable_metrics = false;
    } else if (arg == "--slowlog-us") {
      opts.slowlog_threshold_us =
          static_cast<uint64_t>(atoll(next("--slowlog-us")));
    } else if (arg == "--trace-sample") {
      opts.trace_sample_rate = atof(next("--trace-sample"));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  std::unique_ptr<MonkeyServer> server;
  Status s = MonkeyServer::Start(opts, data_dir, &server);
  if (!s.ok()) {
    fprintf(stderr, "monkey_server: start failed: %s\n",
            s.ToString().c_str());
    return 1;
  }
  printf("monkey_server: listening on %s:%d (%d thread%s, data in %s)\n",
         opts.server_bind.c_str(), server->port(), server->threads(),
         server->threads() == 1 ? "" : "s", data_dir.c_str());
  fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_signalled == 0 && !server->shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  printf("monkey_server: shutting down\n");
  server->Stop();
  return 0;
}
