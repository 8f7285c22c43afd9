// privbayes_serve: TCP model-serving daemon.
//
// Holds a ModelRegistry of fitted PrivBayes models and serves the wire
// protocol of serve/server.h (binary row streaming + direct marginal
// queries, optional per-request deadlines and session idle
// timeouts). Models come from three sources, combinable and repeatable:
//
//   --fit  NAME=DATASET[:rows[:eps]]   fit a paper dataset in-process
//                                      (NLTCS, ACS, Adult, BR2000)
//   --load NAME=PATH                   load a SaveModelFile archive
//   --load-packed NAME=PATH[:eps]      mmap a packed dataset file
//                                      (privbayes_pack) and fit it
//                                      out-of-core — rows never resident
//   --manifest PATH                    load every entry of a registry
//                                      manifest (core/model_io.h)
//
// Prints "READY port=<p> models=<k>" once listening (scripts should prefer
// polling the HEALTH wire command — `serve_client --health PORT` — over
// grepping stdout), then runs until SIGINT/SIGTERM, which triggers a
// graceful drain: accepting stops, in-flight streams get --drain-ms to
// finish, idle sessions are told SHUTTING_DOWN.
//
//   privbayes_serve --port 7878 --fit nltcs=NLTCS:4000:0.8 \
//                   --fit adult=Adult:4000:0.8
//
// All operational output goes through the leveled logger (obs/log.h;
// --log-level or PRIVBAYES_LOG_LEVEL selects the threshold) EXCEPT the bare
// READY line, which boot scripts parse.

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "core/model_io.h"
#include "core/privbayes.h"
#include "data/generators.h"
#include "data/marginal_store.h"
#include "obs/log.h"
#include "serve/server.h"

namespace pb = privbayes;

namespace {

// Bounds for integer flags. Millisecond flags are added to steady_clock
// time points in nanoseconds, so they stay below what that can hold.
constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxBytes = std::numeric_limits<long long>::max();
constexpr long long kMaxMillis = kMaxBytes / 1000000;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P]\n"
               "          [--deadline-ms MS] [--idle-timeout-ms MS]\n"
               "          [--max-sessions N] [--max-active-batches N]\n"
               "          [--event-loops N] [--max-write-buffer BYTES]\n"
               "          [--drain-ms MS] [--log-level LEVEL]\n"
               "          [--trace-slow-ms MS]\n"
               "          [--fit NAME=DATASET[:rows[:eps]]]... "
               "[--load NAME=PATH]...\n"
               "          [--load-packed NAME=PATH[:eps]]... "
               "[--manifest PATH]...\n",
               argv0);
  std::exit(2);
}

// A whole non-negative decimal integer no larger than `max`; anything else
// (a sign, a suffix, an empty string, overflow) is a usage error.
long long ParseCount(const std::string& text, long long max,
                     const char* argv0) {
  unsigned long long value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last ||
      value > static_cast<unsigned long long>(max)) {
    Usage(argv0);
  }
  return static_cast<long long>(value);
}

// One-line MarginalStore summary: refits and sweeps on a held dataset show
// up here as hits (the "cross-run marginal reuse" the store exists for).
void LogMarginalStoreLine(const char* when) {
  PB_LOG(kInfo, "store") << "marginal store " << when << ": "
                         << pb::MarginalStore::Instance().StatsString();
}

// NAME=SPEC split; dies on malformed input.
std::pair<std::string, std::string> SplitNameValue(const std::string& arg,
                                                   const char* argv0) {
  size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) Usage(argv0);
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

void FitAndRegister(pb::ModelRegistry& registry, const std::string& name,
                    const std::string& spec, uint64_t seed) {
  std::string dataset = spec;
  int rows = 0;
  double epsilon = 0.8;
  size_t colon = dataset.find(':');
  if (colon != std::string::npos) {
    std::string rest = dataset.substr(colon + 1);
    dataset = dataset.substr(0, colon);
    size_t colon2 = rest.find(':');
    if (colon2 != std::string::npos) {
      epsilon = std::atof(rest.substr(colon2 + 1).c_str());
      rest = rest.substr(0, colon2);
    }
    rows = std::atoi(rest.c_str());
  }
  PB_LOG(kInfo, "serve") << "fitting " << name << " on " << dataset << " ("
                         << (rows > 0 ? std::to_string(rows) : "all")
                         << " rows, eps=" << epsilon << ")...";
  pb::Dataset data = pb::MakeDatasetByName(dataset, seed, rows);
  pb::PrivBayesOptions options;
  options.epsilon = epsilon;
  options.candidate_cap = 200;
  pb::PrivBayes privbayes(options);
  pb::Rng rng(seed);
  registry.Put(name, privbayes.Fit(data, rng));
  LogMarginalStoreLine("after fit");
}

// PATH[:eps] — fit a packed dataset file out-of-core: the dataset is an
// mmap of the file, counting reads the mapped packed words, and no raw
// column is ever resident (beyond the bounded generalized-column cache).
void FitPackedAndRegister(pb::ModelRegistry& registry, const std::string& name,
                          const std::string& spec, uint64_t seed) {
  std::string path = spec;
  double epsilon = 0.8;
  const size_t colon = path.rfind(':');
  if (colon != std::string::npos && path.find('=', colon) == std::string::npos &&
      colon > 1) {
    const std::string tail = path.substr(colon + 1);
    char* end = nullptr;
    const double parsed = std::strtod(tail.c_str(), &end);
    if (end != tail.c_str() && *end == '\0') {
      epsilon = parsed;
      path = path.substr(0, colon);
    }
  }
  pb::Dataset data = pb::Dataset::FromPackedFile(path);
  PB_LOG(kInfo, "serve") << "fitting " << name << " out-of-core from " << path
                         << " (" << data.num_rows()
                         << " rows, eps=" << epsilon << ")...";
  pb::PrivBayesOptions options;
  options.epsilon = epsilon;
  options.candidate_cap = 200;
  pb::PrivBayes privbayes(options);
  pb::Rng rng(seed);
  registry.Put(name, privbayes.Fit(data, rng));
  LogMarginalStoreLine("after packed fit");
  PB_LOG(kInfo, "serve") << "peak_rss_kb=" << pb::PeakRssKb()
                         << " after out-of-core fit of " << name;
}

// Raise the fd soft limit toward the hard limit: every session is one fd
// (no thread), so the file-descriptor budget IS the C10K session budget.
// Best effort — a container that pins the hard limit just keeps it.
void RaiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= lim.rlim_max) return;
  lim.rlim_cur = lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

}  // namespace

int main(int argc, char** argv) {
  pb::ServeServerOptions options;
  options.port = 7878;
  // Grace for SIGINT/SIGTERM shutdown: in-flight streams get this long to
  // finish before the server hard-stops them (rolling restarts lose no
  // accepted work).
  long long drain_ms = 5000;
  std::vector<std::pair<std::string, std::string>> fits;   // name -> spec
  std::vector<std::pair<std::string, std::string>> loads;  // name -> path
  std::vector<std::pair<std::string, std::string>> packed;  // name -> spec
  std::vector<std::string> manifests;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto next_count = [&](long long max) {
      return ParseCount(next(), max, argv[0]);
    };
    if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = static_cast<int>(next_count(65535));
    } else if (arg == "--deadline-ms") {
      // Per-request streaming deadline (0 = none): a batch that has not
      // finished by then aborts with an in-band DEADLINE_EXCEEDED marker.
      options.request_deadline =
          std::chrono::milliseconds(next_count(kMaxMillis));
    } else if (arg == "--idle-timeout-ms") {
      // Event-loop idle timer (0 = none): silent connections are dropped.
      options.idle_timeout =
          std::chrono::milliseconds(next_count(kMaxMillis));
    } else if (arg == "--max-sessions") {
      // Session cap (0 = unbounded): accepts beyond it are shed with a
      // RESOURCE_EXHAUSTED line instead of spawning a thread.
      options.max_sessions = static_cast<int>(next_count(kMaxInt));
    } else if (arg == "--max-active-batches") {
      // Running-batch cap (0 = never shed): SAMPLEB requests beyond it get
      // RESOURCE_EXHAUSTED and the client backs off.
      options.max_active_batches = static_cast<int>(next_count(kMaxInt));
    } else if (arg == "--event-loops") {
      // epoll threads owning the session sockets (0 = default 2).
      options.event_loops = static_cast<int>(next_count(kMaxInt));
    } else if (arg == "--max-write-buffer") {
      // Per-session write-queue bound in bytes (0 = default 4 MiB): batches
      // park on a full queue instead of buffering a slow consumer's stream.
      options.max_write_buffer = static_cast<size_t>(next_count(kMaxBytes));
    } else if (arg == "--drain-ms") {
      drain_ms = next_count(kMaxMillis);
    } else if (arg == "--log-level") {
      // debug/info/warn/error/off; PRIVBAYES_LOG_LEVEL is the env override,
      // the flag wins when both are given.
      try {
        pb::SetLogLevel(pb::LogLevelFromString(next()));
      } catch (const std::exception&) {
        Usage(argv[0]);
      }
    } else if (arg == "--trace-slow-ms") {
      // Requests slower than this emit one structured stage-timing line
      // (0 disables; unset falls back to PRIVBAYES_TRACE_SLOW_MS).
      options.trace_slow_ms = next_count(kMaxMillis);
    } else if (arg == "--fit") {
      fits.push_back(SplitNameValue(next(), argv[0]));
    } else if (arg == "--load") {
      loads.push_back(SplitNameValue(next(), argv[0]));
    } else if (arg == "--load-packed") {
      packed.push_back(SplitNameValue(next(), argv[0]));
    } else if (arg == "--manifest") {
      manifests.push_back(next());
    } else {
      Usage(argv[0]);
    }
  }
  if (fits.empty() && loads.empty() && packed.empty() && manifests.empty()) {
    // A demo fleet: the same workflow as `--fit nltcs=NLTCS --fit
    // adult=Adult` but small enough to be up in seconds.
    fits = {{"nltcs", "NLTCS:4000:0.8"}, {"adult", "Adult:4000:0.8"}};
  }

  RaiseFdLimit();

  pb::ModelRegistry registry;
  try {
    uint64_t seed = 1;
    for (const auto& [name, spec] : fits) {
      FitAndRegister(registry, name, spec, seed++);
    }
    for (const auto& [name, path] : loads) {
      PB_LOG(kInfo, "serve") << "loading " << name << " from " << path;
      registry.Put(name, pb::LoadModelFile(path));
    }
    for (const auto& [name, spec] : packed) {
      FitPackedAndRegister(registry, name, spec, seed++);
    }
    for (const std::string& manifest : manifests) {
      for (const std::string& name : registry.LoadManifestFile(manifest)) {
        PB_LOG(kInfo, "serve")
            << "loaded " << name << " from manifest " << manifest;
      }
    }
  } catch (const std::exception& e) {
    PB_LOG(kError, "serve") << "model setup failed: " << e.what();
    return 1;
  }

  pb::ServeServer server(&registry, options);
  try {
    server.Start();
  } catch (const std::exception& e) {
    PB_LOG(kError, "serve") << "cannot start server: " << e.what();
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("READY port=%d models=%zu\n", server.port(), registry.size());
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  PB_LOG(kInfo, "serve") << "draining (grace " << drain_ms << " ms)...";
  server.Drain(std::chrono::milliseconds(drain_ms));
  pb::ServeServerStats stats = server.stats();
  PB_LOG(kInfo, "serve") << "shutting down: " << stats.connections
                         << " connections, " << stats.requests
                         << " requests (" << stats.errors << " errors, "
                         << stats.shed_sessions << " shed sessions, "
                         << stats.shed_requests << " shed requests), "
                         << stats.rows_streamed << " rows streamed";
  LogMarginalStoreLine("at shutdown");
  PB_LOG(kInfo, "serve") << "peak_rss_kb=" << pb::PeakRssKb();
  return 0;
}
