// Tests for the serving subsystem: registry hot-swap semantics, sampling-
// service determinism (chunked streaming ≡ one-shot SampleSyntheticData,
// identical rows at 1/4/16 concurrent clients with a hot-swap mid-run),
// projections, sinks, admission, query service, registry manifests, and the
// TCP server + client end to end.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/inference.h"
#include "core/model_io.h"
#include "core/privbayes.h"
#include "data/column_store.h"
#include "data/generators.h"
#include "data/marginal_store.h"
#include "data/packed_codec.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/query_service.h"
#include "serve/row_sink.h"
#include "serve/sampling_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace privbayes {
namespace {

PrivBayesModel FitModel(uint64_t seed, double epsilon = 0.8) {
  Dataset data = MakeNltcs(seed, 1500);
  PrivBayesOptions opts;
  opts.epsilon = epsilon;
  opts.candidate_cap = 40;
  PrivBayes pb(opts);
  Rng rng(seed);
  return pb.Fit(data, rng);
}

// Fitting is the slow part; share one pair of models across tests.
const PrivBayesModel& ModelA() {
  static const PrivBayesModel* model = new PrivBayesModel(FitModel(11));
  return *model;
}
const PrivBayesModel& ModelB() {
  static const PrivBayesModel* model = new PrivBayesModel(FitModel(22, 2.0));
  return *model;
}

bool SameData(const Dataset& a, const Dataset& b) {
  if (a.num_rows() != b.num_rows() || a.num_attrs() != b.num_attrs()) {
    return false;
  }
  for (int c = 0; c < a.num_attrs(); ++c) {
    if (a.column(c) != b.column(c)) return false;
  }
  return true;
}

// `payload` as one wire frame: u32 little-endian length, then the bytes.
std::string Frame(std::string payload) {
  std::string framed;
  AppendU32(framed, static_cast<uint32_t>(payload.size()));
  framed += payload;
  return framed;
}

// A batch no socket buffer plus write queue can absorb (32 MB of packed
// NLTCS rows), so a consumer that stops reading parks it mid-stream.
constexpr char kHugeSample[] = "SAMPLEB m 16000000 1\n";

// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART for the test's
// lifetime, so pthread_kill makes a blocked recv/send actually return EINTR
// (the condition the wire layer must retry, not treat as a dead peer).
class ScopedEintrSignal {
 public:
  ScopedEintrSignal() {
    struct sigaction sa {};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    PB_CHECK(sigaction(SIGUSR1, &sa, &old_) == 0);
  }
  ~ScopedEintrSignal() { sigaction(SIGUSR1, &old_, nullptr); }

 private:
  struct sigaction old_ {};
};

TEST(Wire, ReadLineRetriesAfterEintr) {
  WireFaults::ScopedDisable no_faults;  // real-signal EINTR, not synthetic
  ScopedEintrSignal handler;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::atomic<bool> returned{false};
  std::optional<std::string> line;
  std::thread reader([&] {
    WireBuffer buf;
    line = ReadWireLine(sv[0], buf);
    returned.store(true);
  });

  // Let the reader block in recv, then interrupt it repeatedly; each signal
  // used to look like a dead peer and kill the session.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 5; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(returned.load());  // still waiting, not dropped

  const std::string payload = "still alive\n";
  ASSERT_TRUE(WriteWireBytes(sv[1], payload.data(), payload.size()));
  reader.join();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "still alive");
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Wire, ReadExactRetriesAfterEintr) {
  WireFaults::ScopedDisable no_faults;
  ScopedEintrSignal handler;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::vector<char> got(1 << 20, '\0');
  std::atomic<bool> ok{false};
  std::atomic<bool> returned{false};
  std::thread reader([&] {
    WireBuffer buf;
    ok.store(ReadWireExact(sv[0], buf, got.data(), got.size()));
    returned.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<char> sent(got.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>(i * 131);
  }
  // Feed the payload in slices, interrupting the blocked reader in between.
  size_t at = 0;
  while (at < sent.size()) {
    if (!returned.load()) pthread_kill(reader.native_handle(), SIGUSR1);
    size_t n = std::min<size_t>(sent.size() - at, 64 * 1024);
    ASSERT_TRUE(WriteWireBytes(sv[1], sent.data() + at, n));
    at += n;
  }
  reader.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(got, sent);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Wire, WriteRetriesAfterEintr) {
  WireFaults::ScopedDisable no_faults;
  ScopedEintrSignal handler;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Big enough to fill the socket buffer, so the writer blocks in send()
  // while the signals land.
  std::string big(8 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 89);
  std::atomic<bool> ok{false};
  std::atomic<bool> returned{false};
  std::thread writer([&] {
    ok.store(WriteWireBytes(sv[0], big.data(), big.size()));
    returned.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::string received;
  std::vector<char> chunk(64 * 1024);
  while (received.size() < big.size()) {
    if (!returned.load()) pthread_kill(writer.native_handle(), SIGUSR1);
    ssize_t got = ::recv(sv[1], chunk.data(), chunk.size(), 0);
    ASSERT_GT(got, 0);
    received.append(chunk.data(), static_cast<size_t>(got));
  }
  writer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(received, big);
  ::close(sv[0]);
  ::close(sv[1]);
}

// Packs `values` through the shared codec into a buffer pre-filled with
// 0xAA plus one guard byte, so a byte the codec fails to write, or one it
// writes past the end, shows up in the result.
std::string PackColumn(const std::vector<Value>& values, uint32_t log2_bits) {
  const size_t bytes = PackedBytes(values.size(), log2_bits);
  std::string out(bytes + 1, '\xAA');
  PackValues(values.data(), values.size(), log2_bits,
             reinterpret_cast<uint8_t*>(out.data()));
  EXPECT_EQ(out.back(), '\xAA') << "codec wrote past PackedBytes";
  out.pop_back();
  return out;
}

TEST(Wire, PackedColumnRoundTripAllWidths) {
  for (int card : {2, 3, 4, 5, 16, 17, 200, 256, 257, 40000, 65536}) {
    const uint32_t log2_bits = PackedLog2Bits(card);
    for (size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 1237, 65535}) {
      std::vector<Value> values(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<Value>((i * 2654435761u) % card);
      }
      const std::string packed = PackColumn(values, log2_bits);
      ASSERT_EQ(packed.size(), PackedBytes(n, log2_bits));
      std::vector<Value> back(n);
      UnpackValues(reinterpret_cast<const uint8_t*>(packed.data()), n,
                   log2_bits, back.data());
      EXPECT_EQ(back, values) << "cardinality " << card << ", n " << n;
    }
  }
  EXPECT_EQ(PackedLog2Bits(2), 0u);
  EXPECT_EQ(PackedLog2Bits(3), 1u);
  EXPECT_EQ(PackedLog2Bits(16), 2u);
  EXPECT_EQ(PackedLog2Bits(17), 3u);
  EXPECT_EQ(PackedLog2Bits(257), 4u);
  EXPECT_EQ(PackedLog2Bits(65536), 4u);
}

// The exact bytes a row-frame column carries at every width, for n = 1 and
// one value either side of a whole byte: LSB-first within a byte, 16-bit
// values little-endian, zero tail bits. A layout both ends agree on would
// still round-trip; these bytes are what deployed clients decode.
TEST(Wire, PackedColumnGoldenBytes) {
  static const unsigned kPattern[9] = {0xffff, 0x1234, 0xa5c3,
                                       0x0f0f, 0x5a69, 0xc8e1,
                                       0x3b7d, 0x9642, 0x6d1e};
  struct Golden {
    uint32_t bits;
    size_t n;
    std::string bytes;
  };
  const Golden goldens[] = {
      {1, 1, "\x01"},  {1, 7, "\x7d"},         {1, 9, std::string("\x7d\x00", 2)},
      {2, 1, "\x03"},  {2, 3, "\x33"},         {2, 5, "\xf3\x01"},
      {4, 1, "\x0f"},  {4, 3, "\x4f\x03"},     {8, 0, ""},
      {8, 1, "\xff"},  {8, 2, "\xff\x34"},     {16, 0, ""},
      {16, 1, "\xff\xff"}, {16, 2, "\xff\xff\x34\x12"},
  };
  for (const Golden& g : goldens) {
    const int card = 1 << g.bits;
    std::vector<Value> values(g.n);
    for (size_t i = 0; i < g.n; ++i) {
      values[i] = static_cast<Value>(kPattern[i] & (card - 1));
    }
    const uint32_t log2_bits = PackedLog2Bits(card);
    ASSERT_EQ(1u << log2_bits, g.bits);
    EXPECT_EQ(PackColumn(values, log2_bits), g.bytes)
        << g.bits << " bits, n " << g.n;
  }
}

// A row frame's column bytes are the leading bytes of the heap store's
// slice for that column, and the rest of the slice's last word is zero.
TEST(Wire, RowFrameColumnsEqualHeapStoreSlices) {
  const std::vector<int> cards = {2, 3, 16, 200, 40000};
  constexpr size_t kRows = 1237;
  std::vector<Attribute> attrs;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < cards.size(); ++c) {
    attrs.push_back(Attribute::Categorical("c" + std::to_string(c), cards[c]));
    std::vector<Value> col(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      col[i] = static_cast<Value>(((i + c) * 2654435761u >> 7) % cards[c]);
    }
    columns.push_back(std::move(col));
  }
  const Dataset d = Dataset::FromColumns(Schema(attrs), columns);

  std::ostringstream out;
  BinaryRowSink sink(out);
  sink.Begin(d.schema());
  sink.Chunk(d);
  sink.End();
  const std::string stream = out.str();
  // Skip the schema frame; the next frame holds every row.
  size_t at = 4 + LoadU32(stream.data());
  ASSERT_EQ(stream[at + 4], static_cast<char>(kWireFrameRows));
  ASSERT_EQ(LoadU16(stream.data() + at + 5), kRows);
  at += 7;

  std::shared_ptr<const ColumnStore> store = d.store();
  for (int c = 0; c < d.num_attrs(); ++c) {
    const PackedSlice slice = store->backend().Packed(c, 0);
    const size_t bytes = PackedBytes(kRows, slice.log2_bits);
    EXPECT_EQ(stream.substr(at, bytes),
              std::string(reinterpret_cast<const char*>(slice.bytes()), bytes))
        << "column " << c;
    for (size_t b = bytes; b < slice.num_words * 8; ++b) {
      EXPECT_EQ(slice.bytes()[b], 0) << "column " << c << " byte " << b;
    }
    at += bytes;
  }
}

TEST(ModelRegistry, PutGetEraseNames) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Get("a"), nullptr);
  EXPECT_THROW(registry.Require("a"), std::out_of_range);

  registry.Put("a", ModelA());
  registry.Put("b", ModelB());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(registry.Get("a"), nullptr);

  EXPECT_TRUE(registry.Erase("a"));
  EXPECT_FALSE(registry.Erase("a"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, HotSwapPreservesInFlightHandles) {
  ModelRegistry registry;
  registry.Put("m", ModelA());
  std::shared_ptr<const ServableModel> in_flight = registry.Require("m");
  double old_eps = in_flight->model().epsilon1 + in_flight->model().epsilon2;

  registry.Put("m", ModelB());
  std::shared_ptr<const ServableModel> fresh = registry.Require("m");
  EXPECT_NE(in_flight, fresh);
  // The old handle still serves the old model.
  EXPECT_DOUBLE_EQ(in_flight->model().epsilon1 + in_flight->model().epsilon2,
                   old_eps);
  // Eviction keeps the handle alive too (ref-counted).
  registry.Erase("m");
  EXPECT_EQ(in_flight->model().original_schema.num_attrs(), 16);
}

TEST(SamplingService, MatchesSampleSyntheticDataAcrossChunking) {
  ModelRegistry registry;
  registry.Put("m", ModelA());

  SampleRequest request;
  request.model = "m";
  request.num_rows = 3 * NetworkSampler::kShardRows + 123;  // 4 chunks
  request.seed = 42;

  // The served batch must be bit-identical to local sampling from the
  // archived model with Rng(seed) — chunked streaming may not change bits.
  Rng rng(request.seed);
  Dataset expected = SampleSyntheticData(
      ModelA(), static_cast<int>(request.num_rows), rng);

  SamplingService chunked(&registry, /*max_parallel_batches=*/2,
                          /*chunk_rows=*/NetworkSampler::kShardRows);
  SamplingService one_shot(&registry);
  EXPECT_TRUE(SameData(chunked.SampleToDataset(request), expected));
  EXPECT_TRUE(SameData(one_shot.SampleToDataset(request), expected));
}

TEST(SamplingService, InlineFallbackSameBits) {
  ModelRegistry registry;
  registry.Put("m", ModelA());
  SampleRequest request;
  request.model = "m";
  request.num_rows = 2 * NetworkSampler::kShardRows;
  request.seed = 7;

  SamplingService pooled(&registry, /*max_parallel_batches=*/2);
  SamplingService inline_only(&registry, /*max_parallel_batches=*/0);

  DatasetSink a, b;
  EXPECT_TRUE(pooled.Sample(request, a).pool_admitted);
  EXPECT_FALSE(inline_only.Sample(request, b).pool_admitted);
  EXPECT_TRUE(SameData(a.dataset(), b.dataset()));
  EXPECT_EQ(inline_only.admission().bypassed_total(), 1u);
  EXPECT_EQ(pooled.admission().admitted_total(), 1u);
  EXPECT_EQ(pooled.admission().in_flight(), 0);
}

TEST(SamplingService, Projection) {
  ModelRegistry registry;
  registry.Put("m", ModelA());
  SampleRequest full;
  full.model = "m";
  full.num_rows = 500;
  full.seed = 3;
  Dataset all = SamplingService(&registry).SampleToDataset(full);

  SampleRequest projected = full;
  projected.columns = {5, 0, 2};
  Dataset some = SamplingService(&registry).SampleToDataset(projected);
  ASSERT_EQ(some.num_attrs(), 3);
  EXPECT_EQ(some.schema().attr(0).name, all.schema().attr(5).name);
  EXPECT_EQ(some.column(0), all.column(5));
  EXPECT_EQ(some.column(1), all.column(0));
  EXPECT_EQ(some.column(2), all.column(2));

  SampleRequest bad = full;
  bad.columns = {0, 99};
  EXPECT_THROW(SamplingService(&registry).SampleToDataset(bad),
               std::invalid_argument);
  bad.columns = {1, 1};
  EXPECT_THROW(SamplingService(&registry).SampleToDataset(bad),
               std::invalid_argument);
  EXPECT_THROW(SamplingService(&registry).SampleToDataset(SampleRequest{
                   "nope", 10, 1, {}}),
               std::out_of_range);
}

// The acceptance criterion: identical request seeds yield bit-identical rows
// across 1, 4, and 16 client threads, with registry hot-swap happening
// mid-run. Clients sample both a stable model and the one being swapped;
// the swapped model's rows must match one of its two versions exactly.
TEST(SamplingService, ConcurrentDeterminismUnderHotSwap) {
  ModelRegistry registry;
  registry.Put("stable", ModelA());
  registry.Put("swapped", ModelA());
  SamplingService service(&registry, /*max_parallel_batches=*/2,
                          /*chunk_rows=*/NetworkSampler::kShardRows);

  SampleRequest stable_request;
  stable_request.model = "stable";
  stable_request.num_rows = 2 * NetworkSampler::kShardRows + 19;
  stable_request.seed = 99;
  Dataset stable_expected = service.SampleToDataset(stable_request);

  SampleRequest swapped_request = stable_request;
  swapped_request.model = "swapped";
  Dataset swapped_as_a = service.SampleToDataset(swapped_request);
  Dataset swapped_as_b;
  {
    ModelRegistry tmp;
    tmp.Put("swapped", ModelB());
    swapped_as_b = SamplingService(&tmp).SampleToDataset(swapped_request);
  }

  for (int num_threads : {1, 4, 16}) {
    std::atomic<bool> stop_swapping{false};
    std::thread swapper([&] {
      bool flip = false;
      while (!stop_swapping.load()) {
        registry.Put("swapped", flip ? ModelA() : ModelB());
        flip = !flip;
      }
    });

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < num_threads; ++t) {
      clients.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) {
          Dataset stable_rows = service.SampleToDataset(stable_request);
          if (!SameData(stable_rows, stable_expected)) failures.fetch_add(1);
          Dataset swapped_rows = service.SampleToDataset(swapped_request);
          if (!SameData(swapped_rows, swapped_as_a) &&
              !SameData(swapped_rows, swapped_as_b)) {
            failures.fetch_add(1);
          }
        }
        (void)t;
      });
    }
    for (std::thread& c : clients) c.join();
    stop_swapping.store(true);
    swapper.join();
    EXPECT_EQ(failures.load(), 0) << "at " << num_threads << " threads";
  }
}

TEST(QueryService, MatchesModelMarginalAndSurvivesHotSwap) {
  ModelRegistry registry;
  registry.Put("m", ModelA());
  QueryService query(&registry);

  ProbTable direct = ModelMarginal(ModelA(), {0, 3});
  ProbTable served = query.Marginal("m", {0, 3});
  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i], direct[i]);
  }
  EXPECT_THROW(query.Marginal("nope", {0}), std::out_of_range);

  // A provider resolved before a hot-swap keeps answering from the old
  // model for its whole workload.
  MarginalProvider provider = query.Provider("m");
  registry.Put("m", ModelB());
  ProbTable after_swap = provider({0, 3});
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(after_swap[i], direct[i]);
  }
}

TEST(RegistryManifest, RoundTripAndLoad) {
  std::string dir = ::testing::TempDir();
  SaveModelFile(ModelA(), dir + "a.privbayes-model");
  SaveModelFile(ModelB(), dir + "b.privbayes-model");
  // Relative paths resolve against the manifest's directory.
  SaveRegistryManifestFile(
      {{"alpha", "a.privbayes-model"}, {"beta", "b.privbayes-model"}},
      dir + "fleet.manifest");

  std::vector<RegistryManifestEntry> entries =
      LoadRegistryManifestFile(dir + "fleet.manifest");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (RegistryManifestEntry{"alpha", "a.privbayes-model"}));

  ModelRegistry registry;
  EXPECT_EQ(registry.LoadManifestFile(dir + "fleet.manifest"),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(registry.size(), 2u);
  // The loaded model serves the same rows as the original.
  SampleRequest request{"alpha", 1000, 17, {}};
  Rng rng(request.seed);
  EXPECT_TRUE(SameData(SamplingService(&registry).SampleToDataset(request),
                       SampleSyntheticData(ModelA(), 1000, rng)));
}

TEST(RegistryManifest, RejectsMalformedInput) {
  {
    std::istringstream in("PRIVBAYES-REGISTRY v9\nmodel a a.model\n");
    EXPECT_THROW(LoadRegistryManifest(in), std::runtime_error);
  }
  {
    std::istringstream in("nonsense\n");
    EXPECT_THROW(LoadRegistryManifest(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "PRIVBAYES-REGISTRY v1\nmodel a x.model\nmodel a y.model\n");
    EXPECT_THROW(LoadRegistryManifest(in), std::runtime_error);
  }
  {
    std::istringstream in("PRIVBAYES-REGISTRY v1\nmodel a\n");
    EXPECT_THROW(LoadRegistryManifest(in), std::runtime_error);
  }
  EXPECT_THROW(SaveRegistryManifestFile({{"bad name", "p"}},
                                        ::testing::TempDir() + "m"),
               std::runtime_error);
}

TEST(ModelIoVersioning, RejectsNewerFormatWithClearMessage) {
  std::ostringstream out;
  SaveModel(ModelA(), out);
  std::string text = out.str();
  ASSERT_EQ(text.rfind("PRIVBAYES-MODEL v1\n", 0), 0u);
  std::string newer = "PRIVBAYES-MODEL v99\n" +
                      text.substr(std::string("PRIVBAYES-MODEL v1\n").size());
  std::istringstream in(newer);
  try {
    LoadModel(in);
    FAIL() << "newer version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(ServeServer, EndToEnd) {
  WireFaults::ScopedDisable no_faults;  // exact byte/counter expectations
  ModelRegistry registry;
  registry.Put("a", ModelA());
  registry.Put("b", ModelB());

  ServeServerOptions options;
  options.port = 0;  // ephemeral
  ServeServer server(&registry, options);
  server.Start();
  ASSERT_GT(server.port(), 0);

  ServeClient client("127.0.0.1", server.port());
  client.Ping();
  std::vector<ServedModelInfo> models = client.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "a");
  EXPECT_EQ(models[0].num_attrs, 16);

  // Sampling over the wire equals local sampling from the same model.
  const int64_t rows = NetworkSampler::kShardRows + 50;
  Rng rng(12);
  EXPECT_TRUE(SameData(client.SampleBinary("a", rows, /*seed=*/12),
                       SampleSyntheticData(ModelA(), static_cast<int>(rows),
                                           rng)));

  // Same seed on a different connection: identical rows.
  {
    ServeClient other("127.0.0.1", server.port());
    EXPECT_TRUE(SameData(other.SampleBinary("a", 500, 12),
                         client.SampleBinary("a", 500, 12)));
  }

  // Projection over the wire.
  Dataset proj = client.SampleBinary("a", 100, 1, {3, 1});
  ASSERT_EQ(proj.num_attrs(), 2);
  EXPECT_EQ(proj.schema().attr(0).name, ModelA().original_schema.attr(3).name);

  // A marginal query answered from the model.
  ServeClient::QueryReply marginal = client.Query("b", {0, 1});
  ProbTable direct = ModelMarginal(ModelB(), {0, 1});
  ASSERT_EQ(marginal.probs.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(marginal.probs[i], direct[i]);
  }

  // A marginal wider than one wire line (512 cells wrap at 256 per line).
  ServeClient::QueryReply wide =
      client.Query("a", {0, 1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_EQ(wide.probs.size(), 512u);
  double total = 0;
  for (double p : wide.probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Errors keep the connection usable.
  EXPECT_THROW(client.SampleBinary("nope", 10, 1), std::runtime_error);
  EXPECT_THROW(client.Query("a", {}), std::runtime_error);
  client.Ping();

  // DROP evicts server-side.
  client.Drop("b");
  EXPECT_THROW(client.Query("b", {0}), std::runtime_error);
  EXPECT_EQ(client.List().size(), 1u);

  client.Quit();
  ServeServerStats stats = server.stats();
  EXPECT_GE(stats.connections, 2u);
  EXPECT_GE(stats.rows_streamed, rows + 1000 + 100);
  EXPECT_GE(stats.errors, 2u);
  server.Stop();
}

// The wire is a pure transport: SAMPLEB must deliver cell-for-cell what
// local SampleSyntheticData delivers for the same seed, column names
// included, at 1, 4 and 16 concurrent client threads.
TEST(ServeServer, BinaryMatchesLocalSamplingAcrossClientThreads) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  const int64_t rows = NetworkSampler::kShardRows + 211;
  Rng rng(31);
  Dataset expected =
      SampleSyntheticData(ModelA(), static_cast<int>(rows), rng);

  for (int num_threads : {1, 4, 16}) {
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < num_threads; ++t) {
      clients.emplace_back([&] {
        try {
          ServeClient client("127.0.0.1", server.port());
          Dataset binary = client.SampleBinary("m", rows, 31);
          if (binary.num_rows() != static_cast<int>(rows) ||
              binary.num_attrs() != expected.num_attrs()) {
            failures.fetch_add(1);
            return;
          }
          for (int c = 0; c < expected.num_attrs(); ++c) {
            if (binary.column(c) != expected.column(c)) {
              failures.fetch_add(1);
              return;
            }
            if (binary.schema().attr(c).name != expected.schema().attr(c).name) {
              failures.fetch_add(1);
              return;
            }
          }
          client.Quit();
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(failures.load(), 0) << "at " << num_threads << " threads";
  }

  // A projection serves exactly the requested columns of the seeded batch.
  ServeClient client("127.0.0.1", server.port());
  Dataset full = client.SampleBinary("m", 200, 5);
  Dataset proj = client.SampleBinary("m", 200, 5, {3, 1});
  ASSERT_EQ(proj.num_attrs(), 2);
  EXPECT_EQ(proj.schema().attr(0).name, ModelA().original_schema.attr(3).name);
  EXPECT_EQ(proj.column(0), full.column(3));
  EXPECT_EQ(proj.column(1), full.column(1));
  // Pre-stream errors use the plain ERR channel.
  EXPECT_THROW(client.SampleBinary("nope", 10, 1), std::runtime_error);
  client.Ping();
  server.Stop();
}

// A 1 ms deadline with a multi-chunk batch: the stream must abort with a
// DEADLINE_EXCEEDED error frame (never a mid-stream ERR line), release
// its admission slot, and leave the connection usable. Single-chunk batches
// must always complete — the deadline is only checked between chunks.
TEST(ServeServer, DeadlineExpiryAbortsInBandWithoutLeakingAdmission) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.request_deadline = std::chrono::milliseconds(1);
  ServeServer server(&registry, options);
  server.Start();

  const int64_t big = 3 * SamplingService::kDefaultChunkRows;  // 3 chunks
  // No retries: a deadline abort is kTimeout (retryable), and a retried
  // request would expire 8 more times before surfacing.
  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());

  // The error frame carries the marker and surfaces as a failed request.
  try {
    client.SampleBinary("m", big, 1);
    FAIL() << "deadline did not abort the binary stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("DEADLINE_EXCEEDED"),
              std::string::npos)
        << e.what();
  }

  // The aborted batch released its admission slot on unwind.
  EXPECT_EQ(server.sampling().admission().in_flight(), 0);

  // The connection is still line-synchronized, and a single-chunk batch
  // finishes regardless of the tiny deadline.
  client.Ping();
  EXPECT_EQ(client.SampleBinary("m", 500, 2).num_rows(), 500);
  ServeServerStats stats = server.stats();
  EXPECT_GE(stats.errors, 1u);
  client.Quit();
  server.Stop();
}

// Event-loop idle timer: a connection that goes silent is dropped after
// idle_timeout instead of pinning server state forever; live traffic is
// unaffected.
TEST(ServeServer, IdleTimeoutDropsSilentConnections) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(200);
  ServeServer server(&registry, options);
  server.Start();

  // No retries: the whole point is to observe the dropped connection, not
  // have the client transparently reconnect around it.
  ServeClient idle("127.0.0.1", server.port(), RetryPolicy::None());
  idle.Ping();
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  // The server timed the session out while we slept; the next round trip
  // fails (either the send or the response read, depending on timing).
  EXPECT_THROW(
      {
        idle.Ping();
        idle.Ping();
      },
      std::runtime_error);

  // A fresh, active connection is served normally.
  ServeClient active("127.0.0.1", server.port());
  active.Ping();
  EXPECT_EQ(active.SampleBinary("m", 100, 1).num_rows(), 100);
  active.Quit();
  server.Stop();
}

TEST(ServeServer, ManyClientsWithHotSwap) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("stable", ModelA());
  registry.Put("swapped", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  Rng rng(4);
  Dataset expected = SampleSyntheticData(ModelA(), 2000, rng);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool flip = false;
    while (!stop.load()) {
      registry.Put("swapped", flip ? ModelA() : ModelB());
      flip = !flip;
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      try {
        ServeClient client("127.0.0.1", server.port());
        if (!SameData(client.SampleBinary("stable", 2000, 4), expected)) {
          failures.fetch_add(1);
          return;
        }
        // The swapped model must still answer (either version).
        if (client.SampleBinary("swapped", 100, 1).num_rows() != 100) {
          failures.fetch_add(1);
        }
        client.Quit();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  stop.store(true);
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Serve-layer resilience: fault injection, typed client errors and retry,
// overload shedding, graceful drain, hostile-stream decoding, chaos soak.

// Runs `fn`, which must throw ServeError, and returns the error's code.
template <typename Fn>
ServeErrorCode CodeOf(Fn&& fn) {
  try {
    fn();
  } catch (const ServeError& e) {
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw non-ServeError: " << e.what();
    return ServeErrorCode::kServer;
  }
  ADD_FAILURE() << "did not throw";
  return ServeErrorCode::kServer;
}

TEST(WireFaults, DecisionStreamIsDeterministicAndAccounted) {
  // Same seed + same call sequence → identical fault decisions, so a
  // failing chaos run replays. Drive 300 identical recv calls twice.
  auto run_once = [] {
    WireFaults::ConfigureForTesting(7, 0.5);
    WireFaults::ResetStats();
    int sv[2];
    PB_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    std::string payload(4096, 'x');
    PB_CHECK(::send(sv[1], payload.data(), payload.size(), MSG_NOSIGNAL) > 0);
    char buf[4];
    for (int i = 0; i < 300; ++i) {
      (void)FaultyRecv(sv[0], buf, sizeof(buf));
    }
    ::close(sv[0]);
    ::close(sv[1]);
    return WireFaults::stats();
  };
  WireFaultStats a = run_once();
  WireFaultStats b = run_once();
  EXPECT_EQ(a.calls, 300u);
  EXPECT_EQ(a.eintr, b.eintr);
  EXPECT_EQ(a.short_io, b.short_io);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.kills, b.kills);
  // rate 0.5 over 300 calls: faults happened, spread across all four kinds.
  EXPECT_GT(a.eintr + a.short_io + a.delays + a.kills, 50u);
  EXPECT_GT(a.kills, 0u);

  // ScopedDisable turns injection off and restores the prior arming.
  WireFaults::ConfigureForTesting(9, 0.25);
  EXPECT_TRUE(WireFaults::enabled());
  {
    WireFaults::ScopedDisable off;
    EXPECT_FALSE(WireFaults::enabled());
  }
  EXPECT_TRUE(WireFaults::enabled());
  WireFaults::Disable();
  EXPECT_FALSE(WireFaults::enabled());

  // Env arming: "<seed>:<rate>".
  const char* saved = std::getenv("PRIVBAYES_WIRE_FAULTS");
  const std::string saved_copy = saved ? saved : "";
  ::setenv("PRIVBAYES_WIRE_FAULTS", "123:0.25", 1);
  WireFaults::ResetFromEnv();
  EXPECT_TRUE(WireFaults::enabled());
  ::setenv("PRIVBAYES_WIRE_FAULTS", "123:0", 1);
  WireFaults::ResetFromEnv();
  EXPECT_FALSE(WireFaults::enabled());
  if (saved) {
    ::setenv("PRIVBAYES_WIRE_FAULTS", saved_copy.c_str(), 1);
  } else {
    ::unsetenv("PRIVBAYES_WIRE_FAULTS");
  }
  WireFaults::ResetFromEnv();
}

TEST(WireFaults, CompletedTransfersAreBitIdenticalUnderFaults) {
  // Faults perturb scheduling and connection lifetime, never payload bytes:
  // any transfer that completes must be exactly the sent bytes. Retry whole
  // transfers until one survives the injected kills.
  WireFaults::ConfigureForTesting(4242, 0.05);
  std::string sent(256 * 1024, '\0');
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>(i * 131);
  }
  bool completed = false;
  for (int attempt = 0; attempt < 50 && !completed; ++attempt) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::atomic<bool> write_ok{false};
    std::thread writer([&] {
      write_ok.store(WriteWireBytes(sv[1], sent.data(), sent.size()));
    });
    std::string got(sent.size(), '\0');
    WireBuffer buf;
    bool read_ok = ReadWireExact(sv[0], buf, got.data(), got.size());
    writer.join();
    ::close(sv[0]);
    ::close(sv[1]);
    if (read_ok && write_ok.load()) {
      EXPECT_EQ(got, sent) << "fault injection corrupted payload bytes";
      completed = true;
    }
  }
  WireFaults::ResetFromEnv();  // restore whatever the environment says
  EXPECT_TRUE(completed) << "no transfer survived 50 attempts at rate 0.05";
}

TEST(ServeClientConnect, RefusedIsTypedAndFast) {
  WireFaults::ScopedDisable no_faults;
  // Grab a port that nothing listens on: bind ephemeral, then close.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  const auto start = std::chrono::steady_clock::now();
  ServeErrorCode code = CodeOf([&] {
    ServeClient client("127.0.0.1", dead_port, RetryPolicy::None());
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(code, ServeErrorCode::kRefused);
  EXPECT_LT(elapsed, std::chrono::seconds(2)) << "refused connect hung";
}

TEST(ServeClientConnect, BlackHoleHonorsConnectTimeout) {
  WireFaults::ScopedDisable no_faults;
  // RFC 5737 TEST-NET-1: no host answers, so a blocking connect() would hang
  // for minutes. The client must give up at connect_timeout instead.
  RetryPolicy policy = RetryPolicy::None();
  policy.connect_timeout = std::chrono::milliseconds(300);
  const auto start = std::chrono::steady_clock::now();
  ServeErrorCode code;
  try {
    ServeClient client("192.0.2.1", 9, policy);
    // A NATed/sandboxed network may answer on TEST-NET addresses; nothing
    // about the timeout path can be observed from here.
    GTEST_SKIP() << "environment answers connects to 192.0.2.1";
  } catch (const ServeError& e) {
    code = e.code();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Sandboxed networks may answer with an immediate unreachable (kRefused)
  // instead of black-holing (kTimeout); both are typed and prompt.
  EXPECT_TRUE(code == ServeErrorCode::kTimeout ||
              code == ServeErrorCode::kRefused)
      << ServeErrorCodeName(code);
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "black-holed connect hung";
}

TEST(ServeClientRetry, ReconnectsAcrossServerRestartBitIdentically) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.port = 0;
  auto server = std::make_unique<ServeServer>(&registry, options);
  server->Start();
  const int port = server->port();
  options.port = port;

  Rng rng(5);
  Dataset expected = SampleSyntheticData(ModelA(), 800, rng);
  ServeClient client("127.0.0.1", port, RetryPolicy::WithRetries(10, 99));
  EXPECT_TRUE(SameData(client.SampleBinary("m", 800, 5), expected));

  // Kill the daemon and bring a replacement up on the same port.
  server.reset();
  server = std::make_unique<ServeServer>(&registry, options);
  bool started = false;
  for (int i = 0; i < 100 && !started; ++i) {
    try {
      server->Start();
      started = true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(started);

  // The stale connection surfaces a retryable failure; the retry loop
  // reconnects and replays, and the seeded request returns the same bits
  // from the new process.
  EXPECT_TRUE(SameData(client.SampleBinary("m", 800, 5), expected));
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.retries(), 1u);
  server->Stop();
}

TEST(ServeServer, SessionCapShedsWithTypedError) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.max_sessions = 1;
  ServeServer server(&registry, options);
  server.Start();

  ServeClient first("127.0.0.1", server.port(), RetryPolicy::None());
  first.Ping();  // round trip ⇒ the one session slot is occupied

  ServeClient second("127.0.0.1", server.port(), RetryPolicy::None());
  try {
    second.Ping();
    FAIL() << "session over the cap was served";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShedding) << e.what();
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("RESOURCE_EXHAUSTED"),
              std::string::npos);
  }
  EXPECT_GE(server.stats().shed_sessions, 1u);

  // Capacity freed ⇒ new sessions are admitted again.
  first.Quit();
  bool admitted = false;
  for (int i = 0; i < 200 && !admitted; ++i) {
    try {
      ServeClient third("127.0.0.1", server.port(), RetryPolicy::None());
      third.Ping();
      admitted = true;
    } catch (const ServeError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
  server.Stop();
}

TEST(ServeServer, BatchCapShedsAndRecovers) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.max_active_batches = 1;
  ServeServer server(&registry, options);
  server.Start();

  // A raw client that requests a huge batch and never reads: the server
  // fills the socket buffers and write queue and parks mid-stream, pinning
  // active_batches at 1 for as long as we like.
  int stuck = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stuck, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(stuck, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(WriteWireBytes(stuck, kHugeSample, sizeof(kHugeSample) - 1));

  ServeClient probe("127.0.0.1", server.port(), RetryPolicy::None());
  bool busy = false;
  for (int i = 0; i < 500 && !busy; ++i) {
    busy = probe.Health().active_batches >= 1;
    if (!busy) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(busy) << "big batch never became active";

  try {
    probe.SampleBinary("m", 100, 2);
    FAIL() << "request over the batch cap was served";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShedding) << e.what();
    EXPECT_TRUE(e.retryable());
  }
  EXPECT_GE(server.stats().shed_requests, 1u);
  EXPECT_GE(server.sampling().admission().shed_total(), 1u);
  // The shed reply is a clean ERR line: the connection stays usable.
  probe.Ping();

  // Dropping the stuck client aborts its batch and frees the slot.
  ::close(stuck);
  bool freed = false;
  for (int i = 0; i < 500 && !freed; ++i) {
    freed = probe.Health().active_batches == 0;
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(freed) << "aborted batch leaked its active slot";
  EXPECT_EQ(probe.SampleBinary("m", 100, 2).num_rows(), 100);
  server.Stop();
}

namespace {

// /proc/self/status field in kB ("VmRSS", "VmHWM") or count ("Threads").
long ProcStatusValue(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atol(line.c_str() + prefix.size());
    }
  }
  return -1;
}

int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One PING round trip on a raw socket (reads exactly through the newline —
// safe because nothing else is in flight on the connection).
bool RawPing(int fd) {
  static const char kPing[] = "PING\n";
  if (!WriteWireBytes(fd, kPing, sizeof(kPing) - 1)) return false;
  std::string reply;
  char ch;
  while (reply.size() < 64) {
    ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n <= 0) return false;
    if (ch == '\n') break;
    reply.push_back(ch);
  }
  return reply == "OK PONG";
}

// Reads from `fd` until `needle` has appeared in the stream (discarding
// consumed bytes); false on EOF, error, or 10 s of silence.
bool ReadUntil(int fd, const std::string& needle, std::string* tail) {
  std::string window;
  char buf[65536];
  for (;;) {
    size_t pos = window.find(needle);
    if (pos != std::string::npos) {
      if (tail) *tail = window.substr(pos + needle.size());
      return true;
    }
    // Keep only a needle-sized suffix: the match cannot span further back.
    if (window.size() > needle.size()) {
      window.erase(0, window.size() - needle.size());
    }
    struct pollfd pfd {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) return false;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    window.append(buf, static_cast<size_t>(n));
  }
}

// First sample of a counter in a Prometheus text payload, or -1.
double PromCounter(const std::string& payload, const std::string& name) {
  size_t pos = 0;
  while ((pos = payload.find(name, pos)) != std::string::npos) {
    if (pos > 0 && payload[pos - 1] != '\n') {  // body of a HELP/TYPE line
      pos += name.size();
      continue;
    }
    size_t sp = payload.find(' ', pos);
    if (sp == std::string::npos) return -1;
    return std::atof(payload.c_str() + sp + 1);
  }
  return -1;
}

}  // namespace

// The C10K contract in-process: thousands of parked keep-alive sessions
// cost the server a buffer each — zero additional threads and bounded
// memory — while live traffic on other connections is served normally.
TEST(ServeServer, ThousandsOfIdleSessionsAddNoThreads) {
  WireFaults::ScopedDisable no_faults;
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
  constexpr int kSessions = 2048;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 &&
      lim.rlim_cur < 2 * kSessions + 64) {
    GTEST_SKIP() << "fd limit " << lim.rlim_cur << " too low for "
                 << kSessions << " loopback sessions";
  }

  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.max_sessions = kSessions + 64;
  ServeServer server(&registry, options);
  server.Start();

  // Warm the serving path first so pools and buffers it allocates lazily
  // don't count against the idle herd.
  ServeClient active("127.0.0.1", server.port(), RetryPolicy::None());
  EXPECT_EQ(active.SampleBinary("m", 1000, 1).num_rows(), 1000);
  const long threads_before = ProcStatusValue("Threads");
  const long rss_before = ProcStatusValue("VmRSS");
  ASSERT_GT(threads_before, 0);

  std::vector<int> idle;
  idle.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0) << "connect " << i;
    ASSERT_TRUE(RawPing(fd)) << "ping " << i;  // established server-side
    idle.push_back(fd);
  }

  // Zero new threads: sessions are epoll registrations, not stacks.
  EXPECT_EQ(ProcStatusValue("Threads"), threads_before);
  // Bounded memory: both ends of all 2048 sessions live in this process;
  // well under 32 kB per session (thread stacks alone would blow this).
  const long rss_after = ProcStatusValue("VmRSS");
  EXPECT_LT(rss_after - rss_before, 64 * 1024) << "kB for " << kSessions
                                               << " idle sessions";

  ServeHealth health = active.Health();
  EXPECT_GE(health.sessions, kSessions);

  // The parked herd does not starve live traffic...
  EXPECT_EQ(active.SampleBinary("m", 2000, 2).num_rows(), 2000);
  // ...and parked sessions still answer (spot check a spread).
  for (int i = 0; i < kSessions; i += 256) {
    EXPECT_TRUE(RawPing(idle[static_cast<size_t>(i)])) << "spot " << i;
  }

  for (int fd : idle) ::close(fd);
  active.Quit();
  server.Stop();
}

// Backpressure: a consumer that stops reading mid-batch parks only its own
// driver (write_stalls_total counts it); a healthy concurrent client pulls
// full batches undisturbed, and dropping the stalled consumer aborts its
// batch and frees the admission slot.
TEST(ServeServer, WriteBackpressureStallsOnlySlowConsumer) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.max_write_buffer = 64 * 1024;  // tiny queue: park fast
  ServeServer server(&registry, options);
  server.Start();

  // The slow consumer: request far more rows than the write queue plus
  // socket buffers can hold, then never read.
  int stuck = RawConnect(server.port());
  ASSERT_GE(stuck, 0);
  ASSERT_TRUE(WriteWireBytes(stuck, kHugeSample, sizeof(kHugeSample) - 1));

  ServeClient probe("127.0.0.1", server.port(), RetryPolicy::None());
  bool parked = false;
  for (int i = 0; i < 500 && !parked; ++i) {
    parked =
        PromCounter(probe.Metrics(), "privbayes_serve_write_stalls_total") >= 1;
    if (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(parked) << "stalled consumer never parked its batch driver";

  // While that batch is parked, a healthy client streams a complete batch.
  EXPECT_EQ(probe.SampleBinary("m", 20000, 2).num_rows(), 20000);

  // Dropping the stalled consumer aborts the parked batch and releases its
  // admission slot — the stall cost the server a bounded queue, nothing more.
  ::close(stuck);
  bool freed = false;
  for (int i = 0; i < 500 && !freed; ++i) {
    freed = probe.Health().active_batches == 0;
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(freed) << "parked batch leaked its admission slot";
  EXPECT_EQ(server.sampling().admission().in_flight(), 0);
  probe.Quit();
  server.Stop();
}

// CANCEL mid-stream: the abort surfaces as a CANCELLED error frame on the
// stream being read, the admission slot is released, and the connection
// stays line-synchronized for the next request.
TEST(ServeServer, CancelAbortsMidStreamAndReleasesAdmission) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.max_write_buffer = 256 * 1024;  // bound the pre-abort backlog
  ServeServer server(&registry, options);
  server.Start();

  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // A batch far larger than the write queue: the server cannot finish it
  // before the CANCEL lands, so the abort is deterministically mid-stream.
  ASSERT_TRUE(WriteWireBytes(fd, kHugeSample, sizeof(kHugeSample) - 1));
  ASSERT_TRUE(ReadUntil(fd, "OK ", nullptr)) << "stream never started";

  static const char kCancel[] = "CANCEL\n";
  ASSERT_TRUE(WriteWireBytes(fd, kCancel, sizeof(kCancel) - 1));
  // Drain the stream: frames already queued, then the error frame
  // (u32 len | 0x03 | message), searched as one needle.
  ASSERT_TRUE(ReadUntil(
      fd,
      Frame(std::string(1, static_cast<char>(kWireFrameError)) +
            "CANCELLED: request cancelled by client"),
      nullptr));

  // The slot came back and the connection is reusable in-line.
  EXPECT_TRUE(RawPing(fd));
  EXPECT_EQ(server.sampling().admission().in_flight(), 0);

  // A fresh request on the same connection streams to completion.
  const std::string small = "SAMPLEB m 100 2\n";
  ASSERT_TRUE(WriteWireBytes(fd, small.data(), small.size()));
  ASSERT_TRUE(ReadUntil(fd, Frame(std::string(1, kWireFrameEnd)), nullptr));
  ::close(fd);
  server.Stop();
}

// CANCEL with nothing in flight is ignored: no reply, no error, no effect
// on the next request — and the client-side helper is safe to fire blind.
TEST(ServeServer, CancelWithNothingInFlightIsIgnored) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
  client.Ping();
  const uint64_t requests_before = server.stats().requests;
  client.Cancel();
  client.Cancel();
  // The very next round trips pair correctly: CANCEL wrote no response.
  client.Ping();
  EXPECT_EQ(client.SampleBinary("m", 500, 3).num_rows(), 500);
  // CANCEL is not a request: only PING and SAMPLEB counted.
  EXPECT_EQ(server.stats().requests, requests_before + 2);
  client.Quit();
  server.Stop();
}

TEST(ServeServer, GracefulDrainFinishesInFlightAndNotifiesIdle) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  // An idle keep-alive session, driven raw so we can read the drain notice
  // without sending anything (no RST racing the notice out of the buffer).
  int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  WireBuffer idle_buf;
  const std::string ping = "PING\n";
  ASSERT_TRUE(WriteWireBytes(idle, ping.data(), ping.size()));
  ASSERT_EQ(ReadWireLine(idle, idle_buf).value_or(""), "OK PONG");

  // A big in-flight batch that must finish streaming across the drain.
  const int64_t big = 6 * SamplingService::kDefaultChunkRows;
  Rng rng(9);
  Dataset expected = SampleSyntheticData(ModelA(), static_cast<int>(big), rng);
  std::atomic<bool> in_flight_ok{false};
  std::thread sampler([&] {
    try {
      ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
      in_flight_ok.store(SameData(client.SampleBinary("m", big, 9), expected));
    } catch (const std::exception&) {
      in_flight_ok.store(false);
    }
  });
  bool active = false;
  for (int i = 0; i < 2000 && !active; ++i) {
    active = server.sampling().admission().active() >= 1;
    if (!active) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(active) << "batch never started";

  server.Drain(std::chrono::seconds(30));
  sampler.join();
  EXPECT_TRUE(in_flight_ok.load())
      << "drain tore an in-flight stream (rows lost or wrong)";
  EXPECT_EQ(server.state(), ServeState::kStopped);
  EXPECT_EQ(server.live_sessions(), 0);
  EXPECT_EQ(server.sampling().admission().active(), 0);

  // The idle session got the typed shutdown notice before its socket closed.
  std::optional<std::string> notice = ReadWireLine(idle, idle_buf);
  ASSERT_TRUE(notice.has_value()) << "idle session closed without notice";
  EXPECT_EQ(notice->rfind("ERR SHUTTING_DOWN", 0), 0u) << *notice;
  EXPECT_EQ(ClassifyServerMessage(notice->substr(4)),
            ServeErrorCode::kShuttingDown);
  ::close(idle);

  // New connections are refused outright — the listener is gone.
  ServeErrorCode code = CodeOf([&] {
    ServeClient late("127.0.0.1", server.port(), RetryPolicy::None());
  });
  EXPECT_EQ(code, ServeErrorCode::kRefused);
}

TEST(ServeServer, DrainDeadlineBoundsStalledSessions) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  // A stalled consumer: requests a huge batch, never reads. Its session is
  // permanently in_request, so only the drain deadline can end it.
  int stuck = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stuck, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(stuck, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(WriteWireBytes(stuck, kHugeSample, sizeof(kHugeSample) - 1));
  bool active = false;
  for (int i = 0; i < 5000 && !active; ++i) {
    active = server.sampling().admission().active() >= 1;
    if (!active) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(active);

  const auto start = std::chrono::steady_clock::now();
  server.Drain(std::chrono::milliseconds(300));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(server.state(), ServeState::kStopped);
  EXPECT_EQ(server.live_sessions(), 0);
  EXPECT_EQ(server.sampling().admission().active(), 0)
      << "hard-stopped batch leaked its admission slot";
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "drain did not respect its deadline";
  ::close(stuck);
}

TEST(ServeServer, HealthReportsStateAndGauges) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
  ServeHealth health = client.Health();
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.state, "READY");
  EXPECT_GE(health.sessions, 1);  // at least this probe
  EXPECT_EQ(health.active_batches, 0);

  client.Quit();
  server.Stop();
}

// Value of the first exposition sample whose line is `series` followed by a
// space (exact name{labels} match), or nullopt when the series is absent.
std::optional<double> PromValue(const std::string& text,
                                const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() + 1 && line[series.size()] == ' ' &&
        line.compare(0, series.size(), series) == 0) {
      return std::atof(line.c_str() + series.size() + 1);
    }
  }
  return std::nullopt;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// METRICS returns Prometheus text whose request counters and stage-split
// latency histograms move under a driven workload, and every wire request
// leaves a span in the trace ring with its stages accounted. The full
// exposition-grammar check lives in tools/check_prom.py and runs in CI; this
// guards the series the scraper and dashboards key on.
TEST(ServeServer, MetricsExposesWorkloadAndTracesSpans) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());

  ServeServerOptions options;
  options.port = 0;
  options.trace_slow_ms = 0;  // ring still records; no slow-log noise
  ServeServer server(&registry, options);
  server.Start();

  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
  const std::string before = client.Metrics();
  // A scrape is itself well-formed exposition with the serve families
  // present even before any sampling traffic.
  EXPECT_EQ(CountOf(before, "# TYPE privbayes_serve_requests_total counter"),
            1u);
  ASSERT_TRUE(PromValue(before, "privbayes_serve_connections_total")
                  .has_value());

  const int64_t rows = 2000;
  client.SampleBinary("m", rows, /*seed=*/7);
  client.Query("m", {0, 1});
  const std::string after = client.Metrics();

  // One TYPE line per family, shared by every label variant.
  EXPECT_EQ(CountOf(after, "# TYPE privbayes_serve_request_seconds histogram"),
            1u);
  EXPECT_EQ(CountOf(after, "# TYPE privbayes_serve_requests_total counter"),
            1u);

  // The request counter moved by at least the two driven commands (the
  // METRICS scrapes themselves also count).
  const double req_before =
      PromValue(before, "privbayes_serve_requests_total").value_or(0);
  std::optional<double> req_after =
      PromValue(after, "privbayes_serve_requests_total");
  ASSERT_TRUE(req_after.has_value());
  EXPECT_GE(*req_after - req_before, 2.0);
  std::optional<double> streamed =
      PromValue(after, "privbayes_serve_rows_streamed_total");
  ASSERT_TRUE(streamed.has_value());
  EXPECT_GE(*streamed, static_cast<double>(rows));

  // Every command now has one observation in every stage histogram (a stage
  // a command never enters still records a zero, so _count tracks requests).
  for (const char* cmd : {"SAMPLEB", "QUERY"}) {
    for (const char* stage : {"total", "parse", "admission", "sample",
                              "write"}) {
      const std::string series =
          std::string("privbayes_serve_request_seconds_count{command=\"") +
          cmd + "\",stage=\"" + stage + "\"}";
      std::optional<double> count = PromValue(after, series);
      ASSERT_TRUE(count.has_value()) << series;
      EXPECT_GE(*count, 1.0) << series;
    }
  }
  // The sample stage did real work: its _sum (seconds) is positive.
  std::optional<double> sample_sum = PromValue(
      after,
      "privbayes_serve_request_seconds_sum{command=\"SAMPLEB\","
      "stage=\"sample\"}");
  ASSERT_TRUE(sample_sum.has_value());
  EXPECT_GT(*sample_sum, 0.0);

  // Process-global subsystem families ride along in the same payload.
  for (const char* family :
       {"privbayes_sampler_rows_total", "privbayes_marginal_entries"}) {
    EXPECT_TRUE(PromValue(after, family).has_value()) << family;
  }

  // Each traced command left a span in the ring: stages sum to no more than
  // the span total and the row counts match the requests.
  {
    std::vector<Span> spans = server.traces().Recent();
    auto find_span = [&](const std::string& cmd) -> const Span* {
      for (const Span& span : spans) {
        if (span.command == cmd) return &span;
      }
      return nullptr;
    };
    for (const char* cmd : {"SAMPLEB", "QUERY"}) {
      const Span* span = find_span(cmd);
      ASSERT_NE(span, nullptr) << cmd;
      EXPECT_TRUE(span->ok) << cmd;
      EXPECT_EQ(span->model, "m") << cmd;
      EXPECT_GT(span->id, 0u) << cmd;
      EXPECT_GT(span->total_ns, 0) << cmd;
      int64_t stage_total = 0;
      for (int s = 0; s < kNumStages; ++s) stage_total += span->stage_ns[s];
      EXPECT_GT(stage_total, 0) << cmd;
      EXPECT_LE(stage_total, span->total_ns) << cmd;
    }
    EXPECT_EQ(find_span("SAMPLEB")->rows, rows);
  }

  // A failed request is traced too — and marked failed.
  EXPECT_THROW(client.SampleBinary("nope", 10, 1), ServeError);
  {
    std::vector<Span> spans = server.traces().Recent();
    ASSERT_FALSE(spans.empty());
    const Span& failed = spans.back();
    EXPECT_EQ(failed.command, "SAMPLEB");
    EXPECT_FALSE(failed.ok);
    EXPECT_FALSE(failed.error.empty());
  }

  client.Quit();
  server.Stop();
}

// Every counter the retired STATS command reported is a METRICS series,
// keyed here by its former STATS name.
TEST(ServeServer, MetricsCoverEveryFormerStatsKey) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
  client.SampleBinary("m", 100, 1);
  const std::string text = client.Metrics();
  const std::vector<std::pair<const char*, const char*>> series = {
      {"sample_stream_version", "privbayes_sampler_stream_version"},
      {"connections", "privbayes_serve_connections_total"},
      {"requests", "privbayes_serve_requests_total"},
      {"errors", "privbayes_serve_errors_total"},
      {"rows_streamed", "privbayes_serve_rows_streamed_total"},
      {"shed_sessions", "privbayes_serve_shed_sessions_total"},
      {"shed_requests", "privbayes_serve_shed_requests_total"},
      {"live_sessions", "privbayes_serve_live_sessions"},
      {"active_batches", "privbayes_serve_active_batches"},
      {"pool_admitted_total", "privbayes_serve_pool_admitted_total"},
      {"pool_inline_total", "privbayes_serve_pool_inline_total"},
      {"batch_shed_total", "privbayes_serve_batch_shed_total"},
      {"marginal_cache_enabled", "privbayes_marginal_cache_enabled"},
      {"marginal_hits", "privbayes_marginal_hits_total"},
      {"marginal_misses", "privbayes_marginal_misses_total"},
      {"marginal_evictions", "privbayes_marginal_evictions_total"},
      {"marginal_skipped", "privbayes_marginal_skipped_total"},
      {"marginal_entries", "privbayes_marginal_entries"},
      {"marginal_bytes", "privbayes_marginal_bytes"},
      {"marginal_byte_budget", "privbayes_marginal_byte_budget"},
  };
  ASSERT_EQ(series.size(), 20u);
  for (const auto& [key, name] : series) {
    EXPECT_TRUE(PromValue(text, name).has_value()) << key << " -> " << name;
  }
  auto value = [&](const char* name) {
    return PromValue(text, name).value_or(-1);
  };
  EXPECT_EQ(value("privbayes_sampler_stream_version"),
            NetworkSampler::kSampleStreamVersion);
  EXPECT_GE(value("privbayes_serve_requests_total"), 1);
  EXPECT_GE(value("privbayes_serve_rows_streamed_total"), 100);
  EXPECT_GE(value("privbayes_serve_live_sessions"), 1);
  const MarginalStore& store = MarginalStore::Instance();
  EXPECT_EQ(value("privbayes_marginal_cache_enabled"), store.enabled() ? 1 : 0);
  EXPECT_EQ(value("privbayes_marginal_byte_budget"),
            static_cast<double>(store.byte_budget()));
  // The fixture models were fitted in this process, so with the cache on
  // their structure learns left counted joints behind.
  if (store.enabled()) {
    EXPECT_GT(value("privbayes_marginal_hits_total") +
                  value("privbayes_marginal_misses_total"),
              0);
  }
  client.Quit();
  server.Stop();
}

// SAMPLE and STATS are gone: each gets the generic unknown-command reply,
// and the connection keeps serving.
TEST(ServeServer, RemovedCommandsGetUnknownCommand) {
  WireFaults::ScopedDisable no_faults;
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServer server(&registry, {});
  server.Start();

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  WireBuffer buf;
  for (const auto& [line, cmd] :
       {std::pair<std::string, std::string>{"SAMPLE m 10 1\n", "SAMPLE"},
        {"STATS\n", "STATS"}}) {
    ASSERT_TRUE(WriteWireBytes(fd, line.data(), line.size()));
    EXPECT_EQ(ReadWireLine(fd, buf).value_or(""),
              "ERR unknown command '" + cmd + "'");
  }
  const std::string ping = "PING\n";
  ASSERT_TRUE(WriteWireBytes(fd, ping.data(), ping.size()));
  EXPECT_EQ(ReadWireLine(fd, buf).value_or(""), "OK PONG");
  ::close(fd);

  ServeClient client("127.0.0.1", server.port(), RetryPolicy::None());
  EXPECT_EQ(client.SampleBinary("m", 10, 1).num_rows(), 10);
  client.Quit();
  server.Stop();
}

// Feeds a scripted server-side byte stream to a ServeClient over a
// socketpair: consumes the client's request line, plays the script, then
// half-closes (FIN, not RST — buffered script bytes must stay readable).
class ScriptedServer {
 public:
  explicit ScriptedServer(std::string script) {
    PB_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv_) == 0);
    feeder_ = std::thread([fd = sv_[1], script = std::move(script)] {
      char buf[4096];
      (void)::recv(fd, buf, sizeof(buf), 0);  // the request line
      if (!script.empty()) {
        (void)::send(fd, script.data(), script.size(), MSG_NOSIGNAL);
      }
      ::shutdown(fd, SHUT_WR);
      while (::recv(fd, buf, sizeof(buf), 0) > 0) {
      }
      ::close(fd);
    });
  }
  ~ScriptedServer() { feeder_.join(); }

  /// The client's end; ServeClient(fd) adopts (and eventually closes) it.
  int client_fd() const { return sv_[0]; }

 private:
  int sv_[2];
  std::thread feeder_;
};

// Runs `drive(client)` against a scripted stream and returns the ServeError
// code it surfaces.
template <typename Fn>
ServeErrorCode ScriptedCode(const std::string& script, Fn&& drive) {
  ScriptedServer server(script);
  ServeClient client(server.client_fd());
  return CodeOf([&] { drive(client); });
}

std::string SchemaFramePayload(const std::vector<int>& cards) {
  std::string p;
  p.push_back(static_cast<char>(kWireFrameSchema));
  AppendU16(p, static_cast<uint16_t>(cards.size()));
  for (int card : cards) {
    AppendU16(p, static_cast<uint16_t>(card == 65536 ? 0 : card));
  }
  return p;
}

TEST(HostileStream, PreOkErrorLinesMapToTaxonomy) {
  WireFaults::ScopedDisable no_faults;
  auto sample = [](ServeClient& c) { c.SampleBinary("m", 5, 1); };
  EXPECT_EQ(ScriptedCode("ERR RESOURCE_EXHAUSTED: busy\n", sample),
            ServeErrorCode::kShedding);
  EXPECT_EQ(ScriptedCode("ERR SHUTTING_DOWN: draining\n", sample),
            ServeErrorCode::kShuttingDown);
  EXPECT_EQ(ScriptedCode("ERR DEADLINE_EXCEEDED: too slow\n", sample),
            ServeErrorCode::kTimeout);
  EXPECT_EQ(ScriptedCode("ERR no model named 'm'\n", sample),
            ServeErrorCode::kServer);
  // Retryability split: load/lifecycle errors retry, rejections don't.
  EXPECT_TRUE(ServeError(ServeErrorCode::kShedding, "").retryable());
  EXPECT_TRUE(ServeError(ServeErrorCode::kShuttingDown, "").retryable());
  EXPECT_FALSE(ServeError(ServeErrorCode::kServer, "").retryable());
  EXPECT_FALSE(ServeError(ServeErrorCode::kProtocol, "").retryable());
}

TEST(HostileStream, BinaryDecodePathBoundsEveryDeclaredLength) {
  WireFaults::ScopedDisable no_faults;
  auto sampleb = [](ServeClient& c) { c.SampleBinary("m", 4, 1); };
  const std::string ok_header = "OK 4 2\nA,B\n";
  const std::string schema = Frame(SchemaFramePayload({2, 2}));

  // Garbage response line.
  EXPECT_EQ(ScriptedCode("WAT\n", sampleb), ServeErrorCode::kProtocol);
  // Header promising a different row count than requested.
  EXPECT_EQ(ScriptedCode("OK 3 2\nA,B\n", sampleb), ServeErrorCode::kProtocol);
  // Disconnect before the header line, and after it but before any frame.
  EXPECT_EQ(ScriptedCode("", sampleb), ServeErrorCode::kConnectionLost);
  EXPECT_EQ(ScriptedCode(ok_header, sampleb), ServeErrorCode::kConnectionLost);
  // A 4 GB length prefix must be rejected before any allocation.
  {
    std::string oversize;
    AppendU32(oversize, 0xFFFFFFFFu);
    EXPECT_EQ(ScriptedCode(ok_header + oversize, sampleb),
              ServeErrorCode::kProtocol);
  }
  // Zero-length frames carry no type byte.
  {
    std::string zero;
    AppendU32(zero, 0);
    EXPECT_EQ(ScriptedCode(ok_header + zero, sampleb),
              ServeErrorCode::kProtocol);
  }
  // Truncated schema frame: length promises 7 payload bytes, 3 arrive.
  {
    std::string torn;
    AppendU32(torn, 7);
    torn += SchemaFramePayload({2, 2}).substr(0, 3);
    EXPECT_EQ(ScriptedCode(ok_header + torn, sampleb),
              ServeErrorCode::kConnectionLost);
  }
  // Unknown frame type.
  EXPECT_EQ(ScriptedCode(ok_header + Frame("\x7f"), sampleb),
            ServeErrorCode::kProtocol);
  // Row frame before any schema frame.
  {
    std::string rows_first;
    rows_first.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(rows_first, 1);
    EXPECT_EQ(ScriptedCode(ok_header + Frame(rows_first), sampleb),
              ServeErrorCode::kProtocol);
  }
  // Row frame longer than the schema's worst-case byte bound.
  {
    std::string fat(20000, '\0');
    fat[0] = static_cast<char>(kWireFrameRows);
    EXPECT_EQ(ScriptedCode(ok_header + schema + Frame(fat), sampleb),
              ServeErrorCode::kProtocol);
  }
  // Row frame declaring more rows than its payload holds.
  {
    std::string short_rows;
    short_rows.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(short_rows, 4);  // 4 rows but zero column bytes
    EXPECT_EQ(ScriptedCode(ok_header + schema + Frame(short_rows), sampleb),
              ServeErrorCode::kProtocol);
  }
  // More total rows than the request asked for (client-side allocation cap).
  {
    std::string overrun;
    overrun.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(overrun, 5);  // request asked for 4
    overrun.append(PackedBytes(5, 0) * 2, '\0');
    EXPECT_EQ(ScriptedCode(ok_header + schema + Frame(overrun), sampleb),
              ServeErrorCode::kProtocol);
  }
  // End frame before all promised rows arrived.
  {
    std::string two_rows;
    two_rows.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(two_rows, 2);
    two_rows.append(PackedBytes(2, 0) * 2, '\0');
    const std::string end = Frame(std::string(1, kWireFrameEnd));
    EXPECT_EQ(
        ScriptedCode(ok_header + schema + Frame(two_rows) + end, sampleb),
        ServeErrorCode::kProtocol);
  }
  // Mid-frame disconnect: length promises 10 bytes, 2 arrive.
  {
    std::string torn;
    AppendU32(torn, 10);
    torn += "\x01x";
    EXPECT_EQ(ScriptedCode(ok_header + schema + torn, sampleb),
              ServeErrorCode::kConnectionLost);
  }
  // A row frame value outside its column's cardinality: four 2-bit 3s
  // against cardinality 3.
  {
    std::string out_of_domain;
    out_of_domain.push_back(static_cast<char>(kWireFrameRows));
    AppendU16(out_of_domain, 4);
    out_of_domain.push_back('\xFF');
    const std::string end = Frame(std::string(1, kWireFrameEnd));
    EXPECT_EQ(ScriptedCode("OK 4 1\nA\n" + Frame(SchemaFramePayload({3})) +
                               Frame(out_of_domain) + end,
                           sampleb),
              ServeErrorCode::kProtocol);
  }
  // Error frame mid-stream maps its marker through the taxonomy.
  {
    std::string err(1, kWireFrameError);
    err += "DEADLINE_EXCEEDED: response deadline expired";
    EXPECT_EQ(ScriptedCode(ok_header + schema + Frame(err), sampleb),
              ServeErrorCode::kTimeout);
  }
}

TEST(AdmissionGate, ActiveCapShedsAndTicketsRelease) {
  AdmissionGate gate(/*max_admitted=*/1, /*max_active=*/2);
  std::optional<AdmissionGate::Ticket> a = gate.TryEnter();
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->admitted());  // pool slot
  std::optional<AdmissionGate::Ticket> b = gate.TryEnter();
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->admitted());  // inline, but active
  EXPECT_EQ(gate.active(), 2);
  EXPECT_FALSE(gate.TryEnter().has_value());  // over the active cap: shed
  EXPECT_EQ(gate.shed_total(), 1u);

  b.reset();
  EXPECT_EQ(gate.active(), 1);
  std::optional<AdmissionGate::Ticket> c = gate.TryEnter();
  ASSERT_TRUE(c.has_value());   // active capacity returned…
  EXPECT_FALSE(c->admitted());  // …but `a` still holds the one pool slot
  a.reset();
  c.reset();
  EXPECT_EQ(gate.active(), 0);
  EXPECT_EQ(gate.in_flight(), 0);
  EXPECT_EQ(gate.admitted_total(), 1u);
  EXPECT_EQ(gate.bypassed_total(), 2u);
}

// The acceptance soak: ≥1000 requests from 16 concurrent clients against a
// server whose every socket call runs under 5% fault injection, with the
// daemon killed and restarted mid-run. Every request must end bit-identical
// to the fault-free result or as a typed ServeError — no hangs, no crashes,
// no leaked sessions or admission slots.
TEST(ServeServer, ChaosSoakSurvivesFaultsAndRestart) {
  ModelRegistry registry;
  registry.Put("m", ModelA());
  ServeServerOptions options;
  options.port = 0;
  auto server = std::make_unique<ServeServer>(&registry, options);
  server->Start();
  const int port = server->port();
  options.port = port;

  constexpr int kThreads = 16;
  constexpr int kPerThread = 63;  // 16 × 63 = 1008 requests
  constexpr int kSeeds = 8;
  const int64_t kRows = 1000;
  std::vector<Dataset> expected;
  for (int s = 0; s < kSeeds; ++s) {
    Rng rng(static_cast<uint64_t>(100 + s));
    expected.push_back(
        SampleSyntheticData(ModelA(), static_cast<int>(kRows), rng));
  }

  WireFaults::ConfigureForTesting(2024, 0.05);
  WireFaults::ResetStats();

  std::atomic<int> done{0};
  std::atomic<int> succeeded{0};
  std::atomic<int> typed_errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> hard_failures{0};
  std::atomic<uint64_t> total_retries{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Generous attempts: the run spans a server restart, and every
      // connection is lossy by construction.
      RetryPolicy policy =
          RetryPolicy::WithRetries(16, static_cast<uint64_t>(1000 + t));
      std::unique_ptr<ServeClient> client;
      for (int i = 0; i < kPerThread; ++i) {
        const int s = (t * kPerThread + i) % kSeeds;
        const uint64_t seed = static_cast<uint64_t>(100 + s);
        try {
          if (!client) {
            client =
                std::make_unique<ServeClient>("127.0.0.1", port, policy);
          }
          if (SameData(client->SampleBinary("m", kRows, seed),
                       expected[static_cast<size_t>(s)])) {
            succeeded.fetch_add(1);
          } else {
            mismatches.fetch_add(1);
          }
        } catch (const ServeError&) {
          typed_errors.fetch_add(1);  // acceptable outcome; never a hang
        } catch (const std::exception&) {
          hard_failures.fetch_add(1);
        }
        done.fetch_add(1);
      }
      if (client) total_retries.fetch_add(client->retries());
    });
  }

  // Kill the daemon mid-soak and restart it on the same port; the clients'
  // retry loops must carry every in-flight request across the gap.
  while (done.load() < kThreads * kPerThread / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server->Stop();
  server = std::make_unique<ServeServer>(&registry, options);
  bool restarted = false;
  for (int i = 0; i < 200 && !restarted; ++i) {
    try {
      server->Start();
      restarted = true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ASSERT_TRUE(restarted) << "could not rebind the soak port";

  for (std::thread& w : workers) w.join();
  WireFaults::Disable();

  const int total = kThreads * kPerThread;
  EXPECT_EQ(done.load(), total);
  EXPECT_EQ(hard_failures.load(), 0) << "untyped exception escaped";
  EXPECT_EQ(mismatches.load(), 0)
      << "a completed request was not bit-identical to the fault-free rows";
  // Retry absorbs the 5% fault rate and the restart: the vast majority of
  // requests must SUCCEED, not merely fail cleanly.
  EXPECT_GE(succeeded.load(), (total * 9) / 10)
      << typed_errors.load() << " typed errors";
  EXPECT_GT(total_retries.load(), 0u) << "soak exercised no retries";
  WireFaultStats faults = WireFaults::stats();
  EXPECT_GT(faults.eintr + faults.short_io + faults.delays + faults.kills, 0u);

  // Quiescence: no leaked sessions or admission slots once traffic stops.
  ServeClient probe("127.0.0.1", port, RetryPolicy::WithRetries(5));
  bool quiescent = false;
  for (int i = 0; i < 500 && !quiescent; ++i) {
    ServeHealth health = probe.Health();
    quiescent =
        health.ready && health.sessions == 1 && health.active_batches == 0;
    if (!quiescent) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ServeHealth health = probe.Health();
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.sessions, 1) << "leaked session slots";
  EXPECT_EQ(health.active_batches, 0) << "leaked admission slots";
  server->Stop();
  WireFaults::ResetFromEnv();  // restore the chaos lane's env arming, if any
}

}  // namespace
}  // namespace privbayes
