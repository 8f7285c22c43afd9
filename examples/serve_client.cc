// Multi-client driver for a running privbayes_serve daemon.
//
// Connects several client threads, pulls a synthetic SAMPLEB batch from
// every served model on each, and issues a direct marginal query: the
// end-to-end proof that one server answers concurrent sampling AND query
// traffic. Verifies on the wire what the serving layer promises:
//   * same request seed ⇒ identical rows across connections,
//   * a projected request returns exactly the requested columns of the
//     unprojected batch,
//   * a served marginal is a normalized distribution.
// Rows equal local SampleSyntheticData of the served model under the same
// seed; serve_test checks that against an in-process server, since this
// client never holds the daemon's model. Exits non-zero on any violation
// (the CI smoke job runs this binary).
//
// With PRIVBAYES_WIRE_FAULTS armed (chaos smoke), every connection is
// deliberately lossy: clients retry with backoff (RetryPolicy::Default()
// turns retries on under that env), and results must still be
// bit-identical.
//
// usage: serve_client [port] [host] [threads] [rows]
//        serve_client --health [port] [host]
//        serve_client --soak [port] [host] [idle_sessions] [samplers] [secs]
//
// --health: one HEALTH round trip; prints the reply and exits 0 iff the
// server answers READY. Boot scripts poll this instead of grepping logs.
//
// --soak: the C10K smoke. Parks `idle_sessions` (default 1000) keep-alive
// connections — each verified live with one PING, then left idle — while
// `samplers` (default 8) threads saturate the server with binary batches
// for `secs` (default 10) seconds. Mid-soak, idle sessions are spot-checked
// with PINGs: the event loops must keep answering parked connections while
// the worker pool is pinned. Afterwards the samplers stop, HEALTH is polled
// until active_batches quiesces to 0, every idle session PINGs once more
// and QUITs. Exits 0 and prints "soak checks passed" iff all of that held.
// The CI serve-smoke job wraps this in an RSS check on the daemon: memory
// must stay flat because idle epoll sessions cost a buffer, not a thread.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"

namespace pb = privbayes;

namespace {

std::atomic<int> g_failures{0};

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    g_failures.fetch_add(1);
  }
}

// Thousands of parked sessions need thousands of client-side fds too.
void RaiseFdLimit() {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);  // best effort
  }
}

int RunSoak(int port, const std::string& host, int idle_sessions,
            int samplers, int secs) {
  RaiseFdLimit();
  try {
    pb::ServeClient probe(host, port);
    std::vector<pb::ServedModelInfo> models = probe.List();
    if (models.empty()) {
      std::fprintf(stderr, "FAIL: server has no models\n");
      return 1;
    }
    const std::string model = models.front().name;
    std::printf("soak: %d idle sessions + %d samplers on %s for %ds\n",
                idle_sessions, samplers, model.c_str(), secs);

    // Park the idle herd. A PING each proves the session is actually
    // established server-side, not just sitting in the accept queue.
    std::vector<std::unique_ptr<pb::ServeClient>> idle;
    idle.reserve(static_cast<size_t>(idle_sessions));
    for (int i = 0; i < idle_sessions; ++i) {
      auto c = std::make_unique<pb::ServeClient>(host, port);
      c->Ping();
      idle.push_back(std::move(c));
    }
    std::printf("soak: %zu idle sessions parked\n", idle.size());

    // Saturate: each sampler thread pulls binary batches back to back.
    std::atomic<bool> stop{false};
    std::atomic<int64_t> batches{0};
    std::vector<std::thread> pullers;
    for (int t = 0; t < samplers; ++t) {
      pullers.emplace_back([&, t] {
        try {
          pb::ServeClient client(host, port);
          uint64_t seed = 9000 + static_cast<uint64_t>(t);
          while (!stop.load(std::memory_order_relaxed)) {
            pb::Dataset batch = client.SampleBinary(model, 5000, seed++);
            Check(batch.num_rows() == 5000, "short soak batch");
            batches.fetch_add(1, std::memory_order_relaxed);
          }
          client.Quit();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "FAIL: soak sampler: %s\n", e.what());
          g_failures.fetch_add(1);
        }
      });
    }

    // Spot-check parked sessions while the worker pool is pinned: the
    // event loops must still answer control traffic on idle connections.
    const auto soak_end =
        std::chrono::steady_clock::now() + std::chrono::seconds(secs);
    size_t next_spot = 0;
    while (std::chrono::steady_clock::now() < soak_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      for (int k = 0; k < 16 && !idle.empty(); ++k) {
        idle[next_spot % idle.size()]->Ping();
        ++next_spot;
      }
    }
    stop.store(true);
    for (std::thread& t : pullers) t.join();
    std::printf("soak: %lld saturating batches completed, %zu idle PINGs\n",
                static_cast<long long>(batches.load()), next_spot);
    Check(batches.load() > 0, "samplers made no progress");

    // Quiescence: with the samplers gone, in-flight batches must drain.
    bool quiesced = false;
    for (int i = 0; i < 100; ++i) {
      pb::ServeHealth health = probe.Health();
      if (health.ready && health.active_batches == 0) {
        quiesced = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    Check(quiesced, "server did not quiesce after soak");

    // Every parked session must still be live and answer one last PING.
    for (auto& c : idle) {
      c->Ping();
      c->Quit();
    }
    probe.Quit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: soak: %s\n", e.what());
    return 1;
  }
  if (g_failures.load() > 0) {
    std::fprintf(stderr, "%d soak check(s) failed\n", g_failures.load());
    return 1;
  }
  std::printf("soak checks passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--health") {
    const int port = argc > 2 ? std::atoi(argv[2]) : 7878;
    const std::string host = argc > 3 ? argv[3] : "127.0.0.1";
    try {
      // One attempt, short connect timeout: the caller owns the poll loop.
      pb::RetryPolicy policy = pb::RetryPolicy::None();
      policy.connect_timeout = std::chrono::milliseconds(1000);
      pb::ServeClient probe(host, port, policy);
      pb::ServeHealth health = probe.Health();
      std::printf("%s sessions=%d active_batches=%d\n", health.state.c_str(),
                  health.sessions, health.active_batches);
      return health.ready ? 0 : 1;
    } catch (const pb::ServeError& e) {
      std::fprintf(stderr, "health probe failed (%s): %s\n",
                   pb::ServeErrorCodeName(e.code()), e.what());
      return 1;
    }
  }

  if (argc > 1 && std::string(argv[1]) == "--soak") {
    const int port = argc > 2 ? std::atoi(argv[2]) : 7878;
    const std::string host = argc > 3 ? argv[3] : "127.0.0.1";
    const int idle_sessions = argc > 4 ? std::atoi(argv[4]) : 1000;
    const int samplers = argc > 5 ? std::atoi(argv[5]) : 8;
    const int secs = argc > 6 ? std::atoi(argv[6]) : 10;
    return RunSoak(port, host, idle_sessions, samplers, secs);
  }

  const int port = argc > 1 ? std::atoi(argv[1]) : 7878;
  const std::string host = argc > 2 ? argv[2] : "127.0.0.1";
  const int threads = argc > 3 ? std::atoi(argv[3]) : 4;
  const int64_t rows = argc > 4 ? std::atol(argv[4]) : 20000;

  try {
    pb::ServeClient probe(host, port);
    probe.Ping();
    std::vector<pb::ServedModelInfo> models = probe.List();
    Check(!models.empty(), "server has no models");
    std::printf("connected to %s:%d — %zu model(s)\n", host.c_str(), port,
                models.size());
    for (const pb::ServedModelInfo& m : models) {
      std::printf("  %-12s %2d attrs, fitted on %d rows, eps=%.3g\n",
                  m.name.c_str(), m.num_attrs, m.input_rows, m.epsilon);
    }

    for (const pb::ServedModelInfo& m : models) {
      // Throughput: `threads` concurrent connections, each pulling `rows`.
      auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> pullers;
      for (int t = 0; t < threads; ++t) {
        pullers.emplace_back([&, t] {
          try {
            pb::ServeClient client(host, port);
            pb::Dataset batch =
                client.SampleBinary(m.name, rows, /*seed=*/1000 + t);
            Check(batch.num_rows() == rows, "short sample batch");
            client.Quit();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "FAIL: puller: %s\n", e.what());
            g_failures.fetch_add(1);
          }
        });
      }
      for (std::thread& t : pullers) t.join();
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      std::printf("%s: %d clients × %lld rows in %.2fs — %.0f rows/s\n",
                  m.name.c_str(), threads, static_cast<long long>(rows), secs,
                  threads * static_cast<double>(rows) / secs);

      // Determinism on the wire: two connections, same seed, same rows.
      pb::ServeClient a(host, port), b(host, port);
      pb::Dataset ra = a.SampleBinary(m.name, 1000, /*seed=*/7);
      pb::Dataset rb = b.SampleBinary(m.name, 1000, /*seed=*/7);
      bool same = ra.num_rows() == 1000 && rb.num_attrs() == ra.num_attrs();
      for (int c = 0; same && c < ra.num_attrs(); ++c) {
        same = ra.column(c) == rb.column(c);
      }
      Check(same, "same seed gave different rows");

      // Projection: the first two columns of the same seeded batch.
      pb::Dataset proj = a.SampleBinary(m.name, 1000, /*seed=*/7, {0, 1});
      Check(proj.num_attrs() == 2 && proj.column(0) == ra.column(0) &&
                proj.column(1) == ra.column(1),
            "projection differs from the full batch");

      // Direct marginal query over the first two attributes.
      pb::ServeClient::QueryReply marginal = a.Query(m.name, {0, 1});
      double total = 0;
      for (double p : marginal.probs) total += p;
      Check(std::abs(total - 1.0) < 1e-9, "marginal does not sum to 1");
      std::printf("%s: Pr[X0, X1] from the model = [", m.name.c_str());
      for (size_t i = 0; i < marginal.probs.size() && i < 4; ++i) {
        std::printf("%s%.4f", i ? " " : "", marginal.probs[i]);
      }
      std::printf("%s]\n", marginal.probs.size() > 4 ? " ..." : "");
      a.Quit();
      b.Quit();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }

  if (g_failures.load() > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures.load());
    return 1;
  }
  std::printf("all serving checks passed\n");
  return 0;
}
