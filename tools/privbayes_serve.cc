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
//                                      out-of-core — rows never resident;
//                                      text after the last ':' is ε
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

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/flags.h"
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
// is a usage error.
long long CountOrUsage(const std::string& text, long long max,
                       const char* argv0) {
  const std::optional<long long> value = pb::ParseCount(text, max);
  if (!value) Usage(argv0);
  return *value;
}

// A finite non-negative ε; anything else is a usage error.
double EpsilonOrUsage(const std::string& text, const char* argv0) {
  const std::optional<double> value = pb::ParseNonNegativeDouble(text);
  if (!value) Usage(argv0);
  return *value;
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

// One model to fit: a paper dataset (--fit) or a packed file
// (--load-packed), with its row count (0 = all; --fit only) and ε.
struct FitSpec {
  std::string name;
  std::string source;
  int rows = 0;
  double epsilon = 0.8;
};

// NAME=DATASET[:rows[:eps]]; dies on malformed input.
FitSpec ParseFitSpec(const std::string& arg, const char* argv0) {
  auto [name, spec] = SplitNameValue(arg, argv0);
  FitSpec fit{name, spec};
  const size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    fit.source = spec.substr(0, colon);
    std::string rest = spec.substr(colon + 1);
    const size_t colon2 = rest.find(':');
    if (colon2 != std::string::npos) {
      fit.epsilon = EpsilonOrUsage(rest.substr(colon2 + 1), argv0);
      rest = rest.substr(0, colon2);
    }
    fit.rows = static_cast<int>(CountOrUsage(rest, kMaxInt, argv0));
  }
  return fit;
}

// NAME=PATH[:eps]; the last ':' starts ε. Dies on malformed input.
FitSpec ParsePackedSpec(const std::string& arg, const char* argv0) {
  auto [name, spec] = SplitNameValue(arg, argv0);
  FitSpec fit{name, spec};
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    fit.source = spec.substr(0, colon);
    fit.epsilon = EpsilonOrUsage(spec.substr(colon + 1), argv0);
    if (fit.source.empty()) Usage(argv0);
  }
  return fit;
}

// The served fit: ε from the spec, a privacy-neutral candidate cap of 200.
pb::PrivBayesModel Fit(const pb::Dataset& data, const FitSpec& fit,
                       uint64_t seed) {
  pb::PrivBayesOptions options;
  options.epsilon = fit.epsilon;
  options.candidate_cap = 200;
  pb::Rng rng(seed);
  return pb::PrivBayes(options).Fit(data, rng);
}

void FitAndRegister(pb::ModelRegistry& registry, const FitSpec& fit,
                    uint64_t seed) {
  PB_LOG(kInfo, "serve") << "fitting " << fit.name << " on " << fit.source
                         << " ("
                         << (fit.rows > 0 ? std::to_string(fit.rows) : "all")
                         << " rows, eps=" << fit.epsilon << ")...";
  const pb::Dataset data = pb::MakeDatasetByName(fit.source, seed, fit.rows);
  registry.Put(fit.name, Fit(data, fit, seed));
  LogMarginalStoreLine("after fit");
}

// Peak resident and peak address-space sizes, for the log.
std::string PeakMemoryFields() {
  return "peak_rss_kb=" + std::to_string(pb::PeakRssKb()) +
         " vm_peak_kb=" + std::to_string(pb::PeakVmKb());
}

// Fits a packed dataset file out-of-core: the dataset is an mmap of the
// file, counting reads the mapped packed words, and no raw column is ever
// resident.
void FitPackedAndRegister(pb::ModelRegistry& registry, const FitSpec& fit,
                          uint64_t seed) {
  const pb::Dataset data = pb::Dataset::FromPackedFile(fit.source);
  PB_LOG(kInfo, "serve") << "fitting " << fit.name << " out-of-core from "
                         << fit.source << " (" << data.num_rows()
                         << " rows, eps=" << fit.epsilon << ")...";
  registry.Put(fit.name, Fit(data, fit, seed));
  LogMarginalStoreLine("after packed fit");
  PB_LOG(kInfo, "serve") << PeakMemoryFields() << " after out-of-core fit of "
                         << fit.name;
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
  std::vector<FitSpec> fits;
  std::vector<std::pair<std::string, std::string>> loads;  // name -> path
  std::vector<FitSpec> packed;
  std::vector<std::string> manifests;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto next_count = [&](long long max) {
      return CountOrUsage(next(), max, argv[0]);
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
      fits.push_back(ParseFitSpec(next(), argv[0]));
    } else if (arg == "--load") {
      loads.push_back(SplitNameValue(next(), argv[0]));
    } else if (arg == "--load-packed") {
      packed.push_back(ParsePackedSpec(next(), argv[0]));
    } else if (arg == "--manifest") {
      manifests.push_back(next());
    } else {
      Usage(argv[0]);
    }
  }
  if (fits.empty() && loads.empty() && packed.empty() && manifests.empty()) {
    // A demo fleet: the same workflow as `--fit nltcs=NLTCS --fit
    // adult=Adult` but small enough to be up in seconds.
    fits = {{"nltcs", "NLTCS", 4000, 0.8}, {"adult", "Adult", 4000, 0.8}};
  }

  RaiseFdLimit();

  pb::ModelRegistry registry;
  try {
    uint64_t seed = 1;
    for (const FitSpec& fit : fits) FitAndRegister(registry, fit, seed++);
    for (const auto& [name, path] : loads) {
      PB_LOG(kInfo, "serve") << "loading " << name << " from " << path;
      registry.Put(name, pb::LoadModelFile(path));
    }
    for (const FitSpec& fit : packed) {
      FitPackedAndRegister(registry, fit, seed++);
    }
    for (const std::string& manifest : manifests) {
      for (const std::string& name : registry.LoadManifestFile(manifest)) {
        PB_LOG(kInfo, "serve")
            << "loaded " << name << " from manifest " << manifest;
      }
    }
  } catch (const std::exception& e) {
    // Fatal start-up errors (a bad model file, a malformed PRIVBAYES_*
    // knob) go to stderr, like usage errors, not to the stdout log.
    std::fprintf(stderr, "%s: model setup failed: %s\n", argv[0], e.what());
    return 1;
  }

  pb::ServeServer server(&registry, options);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot start server: %s\n", argv[0], e.what());
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
  PB_LOG(kInfo, "serve") << PeakMemoryFields();
  return 0;
}
