// google-benchmark microbenchmarks of the core operations: joint counting,
// the three score functions, exponential-mechanism selection, and columnar
// sampling throughput.

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bn/sampling.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/maximal_parent_sets.h"
#include "core/noisy_conditionals.h"
#include "data/marginal_store.h"
#include "core/private_greedy.h"
#include "core/privbayes.h"
#include "core/score_functions.h"
#include "core/theta_usefulness.h"
#include "data/generators.h"
#include "data/packed_file.h"
#include "dp/mechanisms.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/query_service.h"
#include "serve/sampling_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace pb = privbayes;

namespace {

const pb::Dataset& Nltcs() {
  static const pb::Dataset* data = new pb::Dataset(pb::MakeNltcs(1, 21574));
  return *data;
}

std::vector<int> PairAttrs(int parents) {
  std::vector<int> attrs;
  for (int i = 0; i <= parents; ++i) attrs.push_back(i);
  return attrs;
}

std::vector<pb::GenAttr> PairGenAttrs(int parents) {
  std::vector<pb::GenAttr> gattrs;
  for (int i = 0; i <= parents; ++i) gattrs.push_back(pb::GenAttr{i, 0});
  return gattrs;
}

// Telemetry hot-path cost: one histogram observation is two relaxed
// fetch_adds on a thread-striped slot (bucket + sum). The serve layer
// records several per request and the sampler one per chunk; the budget is
// < 20 ns per Record, and striping must keep 8 hammering threads off each
// other's cache lines rather than serializing them.
void BM_MetricsRecord(benchmark::State& state) {
  static pb::Histogram* hist = pb::MetricsRegistry::Global().GetHistogram(
      "privbayes_bench_record_seconds", "", "BM_MetricsRecord scratch", 1e-9);
  uint64_t v = 0x9e3779b97f4a7c15ULL * (state.thread_index() + 1);
  for (auto _ : state) {
    hist->Record(v & 0xFFFFF);  // spread across bucket exponents
    v = v * 2862933555777941757ULL + 3037000493ULL;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsRecord)->Threads(1)->Threads(8);

// The seed's naive pass, kept callable for an in-build speedup baseline:
// BM_JointCountsPacked / BM_JointCountsNaive at the same arg is the engine's
// speedup on all-binary candidate sets. Arg = number of parents, so arg 7
// counts an 8-attribute joint and arg 9 exercises the k > kMaxPackedAttrs
// radix fallback.
void BM_JointCountsNaive(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  std::vector<pb::GenAttr> gattrs =
      PairGenAttrs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.JointCountsGeneralizedNaive(gattrs));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_JointCountsNaive)->Arg(1)->Arg(3)->Arg(5)->Arg(6)->Arg(7)->Arg(9);

void BM_JointCountsPacked(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  data.store();  // build the snapshot outside the timed region
  std::vector<pb::GenAttr> gattrs =
      PairGenAttrs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.JointCountsGeneralized(gattrs));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_JointCountsPacked)
    ->Arg(1)->Arg(3)->Arg(5)->Arg(6)->Arg(7)->Arg(9);

// The same counts with dispatch forced to the scalar popcount tree: the
// in-build SIMD-vs-scalar headline (BM_JointCountsPacked / this pair at
// arg 7 is the 8-attribute speedup the CI bench diff tracks).
void BM_JointCountsPackedScalar(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  data.store();
  std::vector<pb::GenAttr> gattrs =
      PairGenAttrs(static_cast<int>(state.range(0)));
  pb::SetSimdForTesting(pb::SimdLevel::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.JointCountsGeneralized(gattrs));
  }
  pb::ResetSimdForTesting();
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_JointCountsPackedScalar)->Arg(5)->Arg(6)->Arg(7);

// Generalized (taxonomy-level) counting on Adult: the packed radix kernel
// vs the naive per-row Generalize pass.
const pb::Dataset& Adult() {
  static const pb::Dataset* data = new pb::Dataset(pb::MakeAdult(1, 45222));
  return *data;
}

std::vector<pb::GenAttr> AdultGeneralizedSet(int attrs) {
  // One taxonomy level up on each attribute that has one.
  std::vector<pb::GenAttr> gattrs;
  const pb::Schema& schema = Adult().schema();
  for (int a = 0; a < schema.num_attrs() && a < attrs; ++a) {
    int level = schema.attr(a).taxonomy.num_levels() > 1 ? 1 : 0;
    gattrs.push_back(pb::GenAttr{a, level});
  }
  return gattrs;
}

void BM_JointCountsGeneralizedNaive(benchmark::State& state) {
  std::vector<pb::GenAttr> gattrs =
      AdultGeneralizedSet(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Adult().JointCountsGeneralizedNaive(gattrs));
  }
  state.SetItemsProcessed(state.iterations() * Adult().num_rows());
}
BENCHMARK(BM_JointCountsGeneralizedNaive)->Arg(2)->Arg(4);

void BM_JointCountsGeneralizedCached(benchmark::State& state) {
  Adult().store();
  std::vector<pb::GenAttr> gattrs =
      AdultGeneralizedSet(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Adult().JointCountsGeneralized(gattrs));
  }
  state.SetItemsProcessed(state.iterations() * Adult().num_rows());
}
BENCHMARK(BM_JointCountsGeneralizedCached)->Arg(2)->Arg(4)->Arg(6);

// The same engine-dispatched counts served from an mmap-backed store: the
// packed file is written once, mapped, and counted through the identical
// kernels. BM_JointCountsPacked / this pair at the same arg is the cost of
// going out-of-core (page-cache reads + per-pass residency drops).
const pb::Dataset& NltcsMapped() {
  static const pb::Dataset* data = [] {
    const pb::Dataset& src = Nltcs();
    const std::string path = "/tmp/micro_core_nltcs.pbp";
    pb::PackedFileWriter writer(path, src.schema(), src.num_rows(), 1);
    std::vector<pb::Value> row(static_cast<size_t>(src.num_attrs()));
    for (int64_t r = 0; r < src.num_rows(); ++r) {
      for (int c = 0; c < src.num_attrs(); ++c) {
        row[static_cast<size_t>(c)] = src.at(r, c);
      }
      writer.AppendRow(row);
    }
    writer.Finish();
    return new pb::Dataset(pb::Dataset::FromPackedFile(path));
  }();
  return *data;
}

void BM_JointCountsMmap(benchmark::State& state) {
  const pb::Dataset& data = NltcsMapped();
  std::vector<pb::GenAttr> gattrs =
      PairGenAttrs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.JointCountsGeneralized(gattrs));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_JointCountsMmap)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_ScoreI(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  pb::ProbTable counts =
      data.JointCounts(PairAttrs(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pb::ScoreI(counts, data.num_rows()));
  }
}
BENCHMARK(BM_ScoreI)->Arg(3)->Arg(7);

void BM_ScoreR(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  pb::ProbTable counts =
      data.JointCounts(PairAttrs(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pb::ScoreR(counts, data.num_rows()));
  }
}
BENCHMARK(BM_ScoreR)->Arg(3)->Arg(7);

void BM_ScoreFExact(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  pb::ProbTable counts =
      data.JointCounts(PairAttrs(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pb::ScoreF(counts, data.num_rows(), 0));
  }
}
BENCHMARK(BM_ScoreFExact)->Arg(3)->Arg(5);

// At Fit's default cap (PrivBayesOptions::f_max_states = 8192). /6 is the
// fit_binary joint (a child and k = 6 parents: 64 columns over 21,574 rows).
void BM_ScoreFThinned(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  pb::ProbTable counts =
      data.JointCounts(PairAttrs(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pb::ScoreF(counts, data.num_rows(), 8192));
  }
}
BENCHMARK(BM_ScoreFThinned)->Arg(3)->Arg(5)->Arg(6)->Arg(7);

void BM_ExponentialMechanism(benchmark::State& state) {
  pb::Rng rng(7);
  std::vector<double> scores(state.range(0));
  for (double& s : scores) s = rng.Uniform();
  pb::ExponentialMechanism em(0.001, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.Select(scores, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialMechanism)->Arg(100)->Arg(1000)->Arg(10000);

// Sampler over NLTCS with a chain network (each attribute's parents are
// its two predecessors) and noiseless binary conditionals.
const pb::NetworkSampler& NltcsChainSampler() {
  static const pb::NetworkSampler* sampler = [] {
    const pb::Dataset& data = Nltcs();
    pb::BayesNet net;
    for (int i = 0; i < data.num_attrs(); ++i) {
      pb::APPair p;
      p.attr = i;
      for (int j = std::max(0, i - 2); j < i; ++j) {
        p.parents.push_back(pb::GenAttr{j, 0});
      }
      net.Add(std::move(p));
    }
    pb::Rng crng(3);
    pb::ConditionalSet cs =
        pb::NoisyConditionalsBinary(data, net, 2, 0.0, crng, nullptr);
    return new pb::NetworkSampler(data.schema(), net, cs);
  }();
  return *sampler;
}

// The columnar engine under forced dispatch — scalar vs the detected SIMD
// level on one thread — isolating what the vector kernels themselves buy
// over the (already columnar) scalar reference.
void BM_SampleColumnar(benchmark::State& state, pb::SimdLevel level) {
  const pb::NetworkSampler& sampler = NltcsChainSampler();
  pb::SetSimdForTesting(level);
  const int rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // A one-index pool job: the shards inside it run inline on one thread.
    pb::ThreadPool::Global().Run(1, 1, [&](size_t, size_t) {
      benchmark::DoNotOptimize(sampler.SampleChunk(4, 0, rows));
    });
  }
  pb::ResetSimdForTesting();
  state.SetItemsProcessed(state.iterations() * rows);
}
void BM_SampleColumnarScalar(benchmark::State& state) {
  BM_SampleColumnar(state, pb::SimdLevel::kScalar);
}
void BM_SampleColumnarSimd(benchmark::State& state) {
  BM_SampleColumnar(state, pb::DetectedSimdLevel());
}
BENCHMARK(BM_SampleColumnarScalar)->Arg(65536);
BENCHMARK(BM_SampleColumnarSimd)->Arg(65536);

// One full private-greedy structure learn on NLTCS: the end-to-end
// candidate-scoring loop (enumerate, count, score, EM-select) the engine
// exists for.
void BM_GreedyIteration(benchmark::State& state) {
  const pb::Dataset& data = Nltcs();
  data.store();
  // Fresh MarginalStore so the hit-rate counter measures reuse across THIS
  // benchmark's learns, not whatever ran before it.
  pb::MarginalStore::Instance().Clear();
  pb::PrivateGreedyOptions opts;
  opts.score = pb::ScoreKind::kR;
  opts.epsilon1 = 0.1;
  opts.fixed_k = static_cast<int>(state.range(0));
  opts.first_attr = 0;
  pb::JointCacheStats stats;
  opts.cache_stats = &stats;
  uint64_t seed = 1;
  for (auto _ : state) {
    pb::Rng rng(seed++);
    benchmark::DoNotOptimize(pb::LearnNetworkBinary(data, opts, rng));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
  // Joint-count memo effectiveness across greedy iterations.
  double total = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
  state.counters["cache_hit_rate"] =
      benchmark::Counter(total > 0 ? stats.hits / total : 0);
}
BENCHMARK(BM_GreedyIteration)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

// Candidate enumeration alone (Algorithm 6 under τ, no data): the sequence
// of bounded maximal-parent-set calls one general learn makes on the Adult
// schema, with a seeded attribute order, the learner's per-attribute cap
// (candidate cap 200), τ from θ-usefulness at ε2 = 0.56 and θ = 4, and the
// default node budget. The argument is the row count n that sets τ; at
// 20,000,000 rows part of the calls trip the budget and sample instead.
// The same sequence is pinned bit for bit by
// BoundedMps.GreedySequenceMatchesGolden.
void BM_ParentSetEnumeration(benchmark::State& state) {
  const pb::Schema& schema = Adult().schema();
  const int d = schema.num_attrs();
  const int64_t n = state.range(0);
  size_t sets = 0;
  for (auto _ : state) {
    pb::Rng rng(20140614 + n);
    std::vector<int> order(d);
    for (int a = 0; a < d; ++a) order[a] = a;
    rng.Shuffle(order);
    for (int r = 1; r < d; ++r) {
      std::vector<int> chosen(order.begin(), order.begin() + r);
      const size_t per_attr_cap =
          std::max<size_t>(16, 200 / static_cast<size_t>(d - r));
      for (int i = r; i < d; ++i) {
        const double tau = pb::ParentDomainCap(n, d, 0.56, 4.0,
                                               schema.Cardinality(order[i]));
        sets += pb::BoundedMaximalParentSets(schema, chosen, tau, true,
                                             per_attr_cap, 200000, rng)
                    .size();
      }
    }
  }
  state.counters["sets"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ParentSetEnumeration)
    ->Arg(45222)
    ->Arg(250000)
    ->Arg(20000000)
    ->Unit(benchmark::kMillisecond);

// --- cross-run marginal reuse (data/marginal_store.h) ----------------------
// One ε sweep = four full general-domain PrivBayes fits (structure learn +
// noisy conditionals) on the same Adult snapshot with fixed per-ε seeds —
// the fig09/fig10 access pattern in miniature, on the dataset where
// counting (45k-row radix joints over τ-capped generalized domains)
// dominates scoring. Cold clears the MarginalStore before every sweep, so
// each one recounts every joint; Warm populates the store once and keeps
// it, so every later learn resolves its joints from the snapshot-keyed
// cache. Warm/Cold is the committed cross-run headline the CI bench diff
// tracks.

void EpsilonSweepOnce(const pb::Dataset& data) {
  const double epsilons[] = {0.1, 0.2, 0.4, 0.8};
  for (size_t i = 0; i < 4; ++i) {
    pb::PrivateGreedyOptions opts;
    opts.score = pb::ScoreKind::kR;
    opts.epsilon1 = 0.3 * epsilons[i];
    opts.epsilon2_plan = 0.7 * epsilons[i];
    opts.first_attr = 0;
    opts.candidate_cap = 150;
    pb::Rng rng(1000 + i);
    pb::LearnedNetwork learned = pb::LearnNetworkGeneral(data, opts, rng);
    pb::Rng crng(2000 + i);
    benchmark::DoNotOptimize(pb::NoisyConditionalsGeneral(
        data, learned.net, 0.7 * epsilons[i], crng, nullptr));
  }
}

void BM_EpsilonSweepCold(benchmark::State& state) {
  const pb::Dataset& data = Adult();
  data.store();
  for (auto _ : state) {
    pb::MarginalStore::Instance().Clear();
    EpsilonSweepOnce(data);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_EpsilonSweepCold)->Unit(benchmark::kMillisecond);

void BM_EpsilonSweepWarm(benchmark::State& state) {
  const pb::Dataset& data = Adult();
  data.store();
  pb::MarginalStore::Instance().Clear();
  EpsilonSweepOnce(data);  // populate the store outside the timed region
  for (auto _ : state) {
    EpsilonSweepOnce(data);
  }
  state.SetItemsProcessed(state.iterations() * 4);
  pb::MarginalStoreStats stats = pb::MarginalStore::Instance().stats();
  double total = static_cast<double>(stats.hits + stats.misses);
  state.counters["store_hit_rate"] =
      benchmark::Counter(total > 0 ? stats.hits / total : 0);
}
BENCHMARK(BM_EpsilonSweepWarm)->Unit(benchmark::kMillisecond);

void BM_LaplaceNoiseVector(benchmark::State& state) {
  pb::Rng rng(5);
  std::vector<double> cells(state.range(0), 0.0);
  pb::LaplaceMechanism lap(2.0 / 21574, 0.1);
  for (auto _ : state) {
    lap.Apply(cells, rng);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LaplaceNoiseVector)->Arg(256)->Arg(65536);

// --- serving (src/serve) ---------------------------------------------------
// Registry + services exactly as the TCP front-end drives them. A shared
// fleet of 4 fitted NLTCS models is built once; Arg = how many of them the
// clients round-robin over (1 = single hot model, 4 = spread), ->Threads =
// concurrent client threads hammering one SamplingService.

struct ServeFixture {
  pb::ModelRegistry registry;
  pb::SamplingService service{&registry};
  pb::QueryService query{&registry};
};

ServeFixture& Serving() {
  static ServeFixture* fixture = [] {
    auto* f = new ServeFixture();
    for (int m = 0; m < 4; ++m) {
      pb::Dataset data = pb::MakeNltcs(100 + m, 4000);
      pb::PrivBayesOptions opts;
      opts.epsilon = 0.8;
      opts.candidate_cap = 60;
      pb::PrivBayes privbayes(opts);
      pb::Rng rng(100 + m);
      f->registry.Put("m" + std::to_string(m), privbayes.Fit(data, rng));
    }
    return f;
  }();
  return *fixture;
}

void BM_ServeSampleBatch(benchmark::State& state) {
  ServeFixture& serving = Serving();
  const int num_models = static_cast<int>(state.range(0));
  constexpr int kBatchRows = 16384;
  pb::SampleRequest request;
  request.model = "m" + std::to_string(state.thread_index() % num_models);
  request.num_rows = kBatchRows;
  uint64_t seed = 1000 * (state.thread_index() + 1);
  for (auto _ : state) {
    request.seed = seed++;
    benchmark::DoNotOptimize(serving.service.SampleToDataset(request));
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_ServeSampleBatch)
    ->Arg(1)->Arg(4)->Threads(1)->Threads(4)->Threads(16)
    ->UseRealTime();

// --- loopback wire paths ---------------------------------------------------
// A real TCP server over the shared fleet, driven through ServeClient: one
// connection per client thread, pulling 16,384-row batches over the SAMPLEB
// length-prefixed packed-column stream.

pb::ServeServer& WireServer() {
  static pb::ServeServer* server = [] {
    auto* s = new pb::ServeServer(&Serving().registry, pb::ServeServerOptions{});
    s->Start();
    return s;
  }();
  return *server;
}

void BM_ServeSampleBatchWireBinary(benchmark::State& state) {
  constexpr int kBatchRows = 16384;
  pb::ServeClient client("127.0.0.1", WireServer().port());
  uint64_t seed = 1000 * (state.thread_index() + 1);
  for (auto _ : state) {
    pb::Dataset batch = client.SampleBinary("m0", kBatchRows, seed++);
    benchmark::DoNotOptimize(batch.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_ServeSampleBatchWireBinary)
    ->Threads(1)->Threads(4)->UseRealTime();

// Goodput under adversity: the same binary pull with the wire fault
// injector armed at 2% (EINTR storms, short reads/writes, delayed flushes,
// mid-stream kills) and the client retrying with backoff. Reported time is
// per *successful* batch including retries — the resilience overhead the
// serve layer pays for at-least-once delivery. `retries` counts replays.
void BM_ServeSampleBatchWireBinaryFaulty(benchmark::State& state) {
  constexpr int kBatchRows = 16384;
  pb::WireFaults::ConfigureForTesting(/*seed=*/90210, /*rate=*/0.02);
  pb::ServeClient client("127.0.0.1", WireServer().port(),
                         pb::RetryPolicy::WithRetries(/*max_attempts=*/16,
                                                      /*jitter_seed=*/7));
  uint64_t seed = 1000 * (state.thread_index() + 1);
  for (auto _ : state) {
    pb::Dataset batch = client.SampleBinary("m0", kBatchRows, seed++);
    benchmark::DoNotOptimize(batch.num_rows());
  }
  pb::WireFaults::ResetFromEnv();  // disarm (or restore the env arming)
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.counters["retries"] = benchmark::Counter(
      static_cast<double>(client.retries()));
}
BENCHMARK(BM_ServeSampleBatchWireBinaryFaulty)->Threads(1)->UseRealTime();

// --- C10K soak -------------------------------------------------------------
// The event-loop acceptance bar: Arg(N) idle keep-alive sessions parked on
// a dedicated soak server while 8 client threads pull binary batches flat
// out. Per-batch time at Arg(0) versus Arg(2048) is the marginal cost of a
// parked C10K herd on live throughput — with epoll session loops it should
// be noise, because an idle session is one epoll registration plus a small
// buffer, not a thread and not a poll-array scan.

pb::ServeServer& SoakServer() {
  static pb::ServeServer* server = [] {
    struct rlimit lim;
    if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      setrlimit(RLIMIT_NOFILE, &lim);  // the herd is fd-bounded
    }
    pb::ServeServerOptions options;
    options.max_sessions = 8192;
    auto* s = new pb::ServeServer(&Serving().registry, options);
    s->Start();
    return s;
  }();
  return *server;
}

std::vector<int> g_soak_idle;

// Parks the herd before the timed threads start (and verifies each session
// with one PING round trip, so every fd is established server-side, not
// queued in the accept backlog).
void SoakSetup(const benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  g_soak_idle.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(SoakServer().port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      break;
    }
    static const char kPing[] = "PING\n";
    pb::WriteWireBytes(fd, kPing, sizeof(kPing) - 1);
    char reply[16];
    size_t got = 0;
    while (got < sizeof(reply)) {
      ssize_t n = ::recv(fd, reply + got, 1, 0);
      if (n <= 0 || reply[got] == '\n') break;
      got += static_cast<size_t>(n);
    }
    g_soak_idle.push_back(fd);
  }
}

void SoakTeardown(const benchmark::State&) {
  for (int fd : g_soak_idle) ::close(fd);
  g_soak_idle.clear();
}

void BM_ServeC10KSoak(benchmark::State& state) {
  constexpr int kBatchRows = 4096;
  pb::ServeClient client("127.0.0.1", SoakServer().port());
  uint64_t seed = 1000 * (state.thread_index() + 1);
  for (auto _ : state) {
    pb::Dataset batch = client.SampleBinary("m0", kBatchRows, seed++);
    benchmark::DoNotOptimize(batch.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.counters["idle_sessions"] =
      benchmark::Counter(static_cast<double>(g_soak_idle.size()),
                         benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ServeC10KSoak)
    ->Arg(0)->Arg(2048)
    ->Threads(8)
    ->Setup(SoakSetup)->Teardown(SoakTeardown)
    ->UseRealTime();

void BM_ServeMarginalQuery(benchmark::State& state) {
  ServeFixture& serving = Serving();
  // A rotating 3-way workload (the paper's Q3 shape) against one model.
  const pb::Schema& schema =
      serving.registry.Require("m0")->model().original_schema;
  const int d = schema.num_attrs();
  int a = state.thread_index() % d;
  for (auto _ : state) {
    std::vector<int> attrs = {a % d, (a + 3) % d, (a + 7) % d};
    benchmark::DoNotOptimize(serving.query.Marginal("m0", attrs));
    ++a;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeMarginalQuery)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
