// privbayes_stats: Prometheus scraper for a running server.
//
// One-shot by default: connects, issues METRICS, writes the Prometheus text
// exposition to stdout, exits 0. That makes it composable the way node
// exporters are — `privbayes_stats --port 7878 > scrape.txt`, pipe into
// promtool, or run it from a textfile-collector cron.
//
//   privbayes_stats --port 7878                 one scrape to stdout
//   privbayes_stats --port 7878 --watch-ms 1000 scrape every second until
//                                               killed (scrapes separated
//                                               by a blank line)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/flags.h"
#include "serve/client.h"

namespace pb = privbayes;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--watch-ms MS]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7878;
  long long watch_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto next_count = [&](long long max) {
      const std::optional<long long> value = pb::ParseCount(next(), max);
      if (!value) Usage(argv[0]);
      return *value;
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<int>(next_count(65535));
    } else if (arg == "--watch-ms") {
      // Bounded like privbayes_serve's millisecond flags, so the sleep's
      // nanosecond conversion cannot overflow.
      watch_ms = next_count(std::numeric_limits<long long>::max() / 1000000);
    } else {
      Usage(argv[0]);
    }
  }

  try {
    pb::ServeClient client(host, port);
    for (;;) {
      const std::string payload = client.Metrics();
      std::fwrite(payload.data(), 1, payload.size(), stdout);
      if (watch_ms <= 0) break;
      std::printf("\n");
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scrape failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
