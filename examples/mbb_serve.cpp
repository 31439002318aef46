/// Long-lived serving front end for the solver registry: reads JSON-lines
/// requests, answers each with one JSON line (see docs/SERVING.md for the
/// wire protocol).
///
///   mbb_serve --stdio                          # request per stdin line
///   mbb_serve --tcp 7411                       # loopback TCP listener
///   mbb_serve --unix /tmp/mbb.sock             # Unix-domain listener
///   echo '{"id":"q1","random":[40,40,0.3,7]}' | mbb_serve --stdio
///
/// The transports share one serving core, so the admission queue, the
/// worker pool, and the result cache span every client.

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "engine/faults.h"
#include "eval/experiment.h"
#include "serve/net.h"
#include "serve/server.h"

namespace {

void Usage() {
  std::cout <<
      "usage: mbb_serve [transport] [options]\n"
      "transport (at least one):\n"
      "  --stdio                     serve requests from stdin (default)\n"
      "  --tcp PORT                  loopback TCP listener (0 = ephemeral;\n"
      "                              the bound port is printed)\n"
      "  --unix PATH                 Unix-domain socket listener\n"
      "options:\n"
      "  --workers N                 solver worker threads, 0..1024\n"
      "                              (default 2, 0 = one per hardware\n"
      "                              thread)\n"
      "  --queue N                   admission-queue capacity (default 256)\n"
      "  --cache N                   result-cache entries (default 128,\n"
      "                              0 disables caching)\n"
      "  --deadline-ms MS            default per-query deadline (default\n"
      "                              0 = unlimited)\n"
      "  --starvation-ms MS          SJF starvation bound (default 500)\n"
      "  --threads N                 default solver threads per query\n"
      "                              (0..1024)\n"
      "  --memory-budget-mb N        default per-solve arena budget in MiB\n"
      "                              (default 0 = unlimited; requests may\n"
      "                              override with 'budget_mb')\n"
      "  --watchdog-stall-ms MS      hard-abandon a job whose worker stops\n"
      "                              observing its stop token for this\n"
      "                              long (default 500, 0 disables the\n"
      "                              watchdog)\n"
      "  --watchdog-poll-ms MS       watchdog scan interval (default 20)\n"
      "  --fault-spec SPEC           arm the deterministic fault-injection\n"
      "                              layer (see docs/ARCHITECTURE.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using mbb::serve::Server;
  using mbb::serve::ServerOptions;
  using mbb::serve::SocketFrontEnd;
  using mbb::serve::kMaxThreads;

  // Flag bounds: the protocol's caps on `threads` and `deadline_ms`
  // (larger deadlines overflow the clock arithmetic), and no cap on the
  // queue and cache capacities beyond their type.
  constexpr auto kMaxMs =
      static_cast<std::uint64_t>(mbb::serve::kMaxDeadlineMs);
  constexpr std::uint64_t kAnyCount = ~std::uint64_t{0};

  ServerOptions options;
  bool use_stdio = false;
  bool use_tcp = false;
  bool use_unix = false;
  std::uint64_t tcp_port = 0;
  std::string unix_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Reads the next argument into `value` if it is an integer in
    // [lo, hi]; a bad value is reported by name and then takes the usage
    // exit below.
    std::uint64_t value = 0;
    auto next_number = [&](std::uint64_t lo, std::uint64_t hi) {
      if (i + 1 >= argc) return false;
      const std::optional<std::uint64_t> parsed =
          mbb::ParseFlagNumber(arg, argv[++i], lo, hi);
      value = parsed.value_or(0);
      return parsed.has_value();
    };
    if (arg == "--stdio") {
      use_stdio = true;
    } else if (arg == "--tcp" && next_number(0, 65535)) {
      use_tcp = true;
      tcp_port = value;
    } else if (arg == "--unix" && i + 1 < argc) {
      use_unix = true;
      unix_path = argv[++i];
    } else if (arg == "--workers" && next_number(0, kMaxThreads)) {
      options.num_workers = static_cast<std::uint32_t>(value);
    } else if (arg == "--queue" && next_number(1, kAnyCount)) {
      options.queue_capacity = value;
    } else if (arg == "--cache" && next_number(0, kAnyCount)) {
      options.cache_capacity = value;
    } else if (arg == "--deadline-ms" && next_number(0, kMaxMs)) {
      options.default_deadline_ms = static_cast<double>(value);
    } else if (arg == "--starvation-ms" && next_number(0, kMaxMs)) {
      options.starvation_ms = static_cast<double>(value);
    } else if (arg == "--threads" && next_number(0, kMaxThreads)) {
      options.default_threads = static_cast<std::uint32_t>(value);
    } else if (arg == "--memory-budget-mb" &&
               next_number(0, (std::uint64_t{1} << 44) - 1)) {
      options.memory_budget_bytes = value << 20;
    } else if (arg == "--watchdog-stall-ms" && next_number(0, kMaxMs)) {
      options.watchdog_stall_ms = static_cast<double>(value);
    } else if (arg == "--watchdog-poll-ms" && next_number(1, kMaxMs)) {
      options.watchdog_poll_ms = static_cast<double>(value);
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      std::string spec_error;
      if (!mbb::faults::Configure(argv[++i], &spec_error)) {
        std::cerr << "--fault-spec: " << spec_error << "\n";
        return 2;
      }
      options.fault_spec = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown or malformed argument: " << arg << "\n";
      Usage();
      return 2;
    }
  }
  if (!use_stdio && !use_tcp && !use_unix) use_stdio = true;

  Server server(options);
  SocketFrontEnd sockets(server);
  std::string error;
  if (use_tcp) {
    if (!sockets.ListenTcp(static_cast<std::uint16_t>(tcp_port), &error)) {
      std::cerr << "tcp listen failed: " << error << "\n";
      return 1;
    }
    std::cerr << "listening on 127.0.0.1:" << sockets.tcp_port() << "\n";
  }
  if (use_unix) {
    if (!sockets.ListenUnix(unix_path, &error)) {
      std::cerr << "unix listen failed: " << error << "\n";
      return 1;
    }
    std::cerr << "listening on " << unix_path << "\n";
  }

  if (use_stdio) {
    mbb::serve::ServeStdio(server, std::cin, std::cout);
    sockets.Stop();
  } else {
    // Socket-only mode: block until a shutdown command arrives.
    sockets.WaitUntilStopped();
    sockets.Stop();
    server.Drain();
  }
  server.Shutdown();
  return 0;
}
