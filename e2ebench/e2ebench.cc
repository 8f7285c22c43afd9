// e2ebench: the end-to-end benchmark of PrivBayes fit and release.
//
//   e2ebench --workload fit_binary|fit_general|release --seed N
//            --seconds S --trace 0|1 [--smoke] [--spans FILE]
//            [--commit C] [--source-sha H]
//
// One process runs one workload (README.md in this directory says what each
// one stresses and why). Every run has the same three phases:
//
//   set-up   draw the datasets from the seed and fit the model(s) the
//            release phase serves; repeated kSetupReps times, the median is
//            setup_s;
//   fit      a schedule of cold fits, each on its own bootstrap sample and
//            followed by an identical refit on the warm MarginalStore;
//   release  an in-process ServeServer on loopback under closed-loop load:
//            three bulk connections and one interactive connection, all
//            pulling SAMPLEB batches and alternating across the models.
//
// The library is driven only through its public entry points. With
// --trace 0 the last stdout line is the result object with every
// end-to-end metric; with --trace 1 the fit is re-run decomposed into its
// public stages (ApplyEncoding, LearnNetwork*, NoisyConditionals*,
// NetworkSampler) and the release pipeline into SampleChunk,
// DecodeToOriginal and BinaryRowSink, with a span around each call, and
// the result carries the per-layer metrics instead. Spans are kept in
// memory and written to --spans when the run ends.
//
// Every check the run makes (row counts, bit-identity of served rows with
// local sampling, refit == cold fit, ε1 + ε2 == ε, engine counts == naive
// counts, layer times reconciling with the end-to-end time) counts toward
// `failed` when it does not hold.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/env.h"
#include "common/numa.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/noisy_conditionals.h"
#include "core/private_greedy.h"
#include "core/privbayes.h"
#include "core/theta_usefulness.h"
#include "data/encoding.h"
#include "data/generators.h"
#include "data/marginal_store.h"
#include "dp/budget.h"
#include "query/marginal_workload.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/row_sink.h"
#include "serve/sampling_service.h"
#include "serve/server.h"

namespace pb = privbayes;

namespace {

// ------------------------------------------------------------ parameters --

constexpr double kEpsilon = 0.8;
constexpr size_t kCandidateCap = 200;
constexpr int kSetupReps = 3;
// Fit schedule: at least this many cold/warm pairs; tvd2 averages the first
// kTvdFits of them, so it does not depend on how many pairs fit in a run.
constexpr uint64_t kMinFits = 8;
constexpr size_t kTvdFits = 8;
// The schedule's fit seeds are fixed: pair i fits with the same seed in
// every run, so every run scores the same sequence of randomized structures.
// A general-domain refit costs up to 4x more on one structure than on
// another; with seed-derived fit seeds that alone spread the median refit
// time by about 15% between runs. The run seed still draws the data.
constexpr uint64_t kScheduleSeed = 20140614;
constexpr size_t kBulkConnections = 3;
// Served replies kept for the bit-identity check: request i of a connection
// is kept when i % kKeepEvery == 0, up to kKeepMax per connection.
constexpr uint64_t kKeepEvery = 8;
constexpr size_t kKeepMax = 4;
// In-process release probes of the traced run (alternating models).
constexpr int kReleaseProbes = 6;
// Layer self times must sum to the end-to-end time within this share.
constexpr double kReconcileTolerance = 0.25;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> Concat(const std::vector<std::vector<double>>& parts) {
  std::vector<double> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string List(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

// A JSON number; a run with nothing to measure (NaN) has failed a check
// and prints null, so the result line stays valid JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ----------------------------------------------------------------- spans --

struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the tracer's records; -1 = root
};

// In-memory span recorder for the main thread. Disabled, it records
// nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Open(const std::string& name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(records_.size());
    records_.push_back({name, Now(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void Close(int id) {
    if (id < 0) return;
    records_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }

  // Durations of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& r : records_) {
      if (r.name == name) out.push_back(r.end - r.start);
    }
    return out;
  }

  // Self time is a span's duration minus the time its direct children
  // cover. With an empty `parent`: the self time of each root span named
  // `name`. Otherwise, for each span named `parent`, the summed self time of
  // its direct children named `name`.
  std::vector<double> SelfTimes(const std::string& name,
                                const std::string& parent) const {
    std::vector<double> child_time(records_.size(), 0.0);
    for (const SpanRecord& r : records_) {
      if (r.parent >= 0) {
        child_time[static_cast<size_t>(r.parent)] += r.end - r.start;
      }
    }
    std::map<int, double> per_parent;  // ordered by parent span
    std::vector<double> out;
    for (size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      if (r.name != name) continue;
      const double self = r.end - r.start - child_time[i];
      if (parent.empty()) {
        if (r.parent < 0) out.push_back(self);
      } else if (r.parent >= 0 &&
                 records_[static_cast<size_t>(r.parent)].name == parent) {
        per_parent[r.parent] += self;
      }
    }
    for (const auto& [id, self] : per_parent) out.push_back(self);
    return out;
  }

  // One JSON object per line: a host line, then one line per span with
  // times relative to the first span.
  bool Write(const std::string& path, const std::string& host_json) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"host\":" << host_json << "}\n";
    const double t0 = records_.empty() ? 0 : records_.front().start;
    for (size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << r.name
          << "\",\"parent\":" << r.parent
          << ",\"start_s\":" << Num(r.start - t0)
          << ",\"end_s\":" << Num(r.end - t0) << "}\n";
    }
    return static_cast<bool>(out);
  }

  bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Open(name)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------------------------------------ run record --

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;  // how many measurements the value summarizes
};

struct Run {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check failed: %s\n", what.c_str());
    }
  }
};

// -------------------------------------------------------------- workloads --

struct ModelSpec {
  std::string name;     // serving name
  std::string dataset;  // MakeDatasetByName name
  int rows = 0;
};

struct Workload {
  // Fitted in set-up and served in release; the fit schedule cycles
  // through their populations.
  std::vector<ModelSpec> served;
  double fit_share = 0;  // share of --seconds for the fit schedule
  int64_t bulk_rows = 262144;
  int64_t small_rows = 1024;
};

Workload MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  const int nltcs = smoke ? 2000 : 21574;
  if (name == "fit_binary") {
    w.served = {{"nltcs", "NLTCS", nltcs}};
    w.fit_share = 0.75;
  } else if (name == "fit_general") {
    w.served = {{"adult", "Adult", smoke ? 4000 : 250000}};
    w.fit_share = 0.75;
  } else if (name == "release") {
    w.served = {{"adult", "Adult", smoke ? 3000 : 45222},
                {"nltcs", "NLTCS", nltcs}};
    w.fit_share = 0.4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    w.bulk_rows = 16384;
    w.small_rows = 256;
  }
  return w;
}

// The population behind each dataset is fixed (the generator's ground truth
// at this seed). Every fit's input is a bootstrap sample of it, drawn with a
// seed derived from the run seed: seeds vary the rows, not the distribution
// that the fit's cost depends on.
constexpr uint64_t kPopulationSeed = 20140614;

// The sample's column store is built here, outside any timed fit.
pb::Dataset Bootstrap(const pb::Dataset& population, uint64_t seed) {
  const int64_t n = population.num_rows();
  pb::Rng rng(seed);
  std::vector<int> rows(static_cast<size_t>(n));
  for (int& r : rows) {
    r = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
  }
  pb::Dataset sample = population.SelectRows(rows);
  sample.store();
  return sample;
}

pb::PrivBayesOptions FitOptions() {
  pb::PrivBayesOptions options;
  options.epsilon = kEpsilon;
  options.candidate_cap = kCandidateCap;
  return options;
}

// PrivBayes::Fit split into its public stages, one span each. Consumes the
// Rng in the same order as Fit, so it returns the same model.
pb::PrivBayesModel FitDecomposed(const pb::Dataset& data,
                                 const pb::PrivBayesOptions& options,
                                 pb::Rng& rng, Tracer& tracer,
                                 pb::JointCacheStats* joints) {
  pb::PrivBayesModel model;
  model.original_schema = data.schema();
  model.encoding = options.encoding;
  model.input_rows = data.num_rows();
  pb::EncodedDataset encoded;
  {
    ScopedSpan span(tracer, "data.encode");
    encoded = pb::ApplyEncoding(data, options.encoding);
  }
  model.encoder = encoded.encoder;
  model.encoded_schema = encoded.data.schema();
  const pb::Dataset& enc = encoded.data;
  model.used_binary_algorithm = model.encoded_schema.AllBinary();

  const double eps = options.epsilon;
  double eps1 = options.beta * eps;
  double eps2 = (1.0 - options.beta) * eps;
  pb::BudgetAccountant acct(eps);
  pb::PrivateGreedyOptions greedy;
  greedy.score = options.score.value_or(
      model.used_binary_algorithm ? pb::ScoreKind::kF : pb::ScoreKind::kR);
  greedy.epsilon1 = eps1;
  greedy.epsilon2_plan = eps2;
  greedy.theta = options.theta;
  greedy.candidate_cap = options.candidate_cap;
  greedy.f_max_states = options.f_max_states;
  greedy.mps_node_budget = options.mps_node_budget;
  greedy.first_attr = options.first_attr;
  greedy.cache_stats = joints;

  if (model.used_binary_algorithm) {
    const int k = pb::ChooseDegreeK(enc.num_rows(), enc.num_attrs(), eps2,
                                    options.theta);
    if (k == 0) {  // Fit's degenerate case: all budget to the marginals
      eps1 = 0.0;
      eps2 = eps;
      greedy.epsilon1 = 0.0;
      greedy.epsilon2_plan = eps;
    }
    greedy.fixed_k = k;
    pb::LearnedNetwork learned;
    {
      ScopedSpan span(tracer, "core.learn");
      learned = pb::LearnNetworkBinary(enc, greedy, rng, &acct);
    }
    model.network = std::move(learned.net);
    model.degree_k = learned.k;
    ScopedSpan span(tracer, "core.noise");
    model.conditionals = pb::NoisyConditionalsBinary(
        enc, model.network, model.degree_k, eps2, rng, &acct);
  } else {
    pb::LearnedNetwork learned;
    {
      ScopedSpan span(tracer, "core.learn");
      learned = pb::LearnNetworkGeneral(enc, greedy, rng, &acct);
    }
    model.network = std::move(learned.net);
    ScopedSpan span(tracer, "core.noise");
    model.conditionals =
        pb::NoisyConditionalsGeneral(enc, model.network, eps2, rng, &acct);
  }
  model.epsilon1 = eps1;
  model.epsilon2 = eps2;
  return model;
}

bool SameNetwork(const pb::PrivBayesModel& a, const pb::PrivBayesModel& b) {
  return a.network.pairs() == b.network.pairs();
}

bool SpendsEpsilon(const pb::PrivBayesModel& m) {
  return std::abs(m.epsilon1 + m.epsilon2 - kEpsilon) <= 1e-9;
}

bool SameCells(const pb::Dataset& a, const pb::Dataset& b) {
  if (a.num_rows() != b.num_rows() || a.num_attrs() != b.num_attrs()) {
    return false;
  }
  for (int c = 0; c < a.num_attrs(); ++c) {
    if (a.column(c) != b.column(c)) return false;
  }
  return true;
}

double Tvd2(const pb::Dataset& real, const pb::PrivBayesModel& model,
            uint64_t seed) {
  pb::Rng rng(seed);
  pb::Dataset synthetic =
      pb::SampleSyntheticData(model, real.num_rows(), rng);
  return pb::AverageMarginalTvd(
      real, pb::MarginalWorkload::AllAlphaWay(real.schema(), 2), synthetic);
}

// ----------------------------------------------------------------- set-up --

struct Served {
  std::vector<pb::Dataset> population;  // parallel to Workload::served
  pb::ModelRegistry registry;
};

// Generates every population, fits a model to a bootstrap sample of each,
// and checks and registers it. Each repetition draws other samples.
std::unique_ptr<Served> SetUp(const Workload& w, uint64_t seed, int rep,
                              Run& run) {
  auto served = std::make_unique<Served>();
  const pb::PrivBayes mechanism(FitOptions());
  for (size_t m = 0; m < w.served.size(); ++m) {
    const ModelSpec& spec = w.served[m];
    const uint64_t stream = 16 * static_cast<uint64_t>(rep) + m;
    served->population.push_back(
        pb::MakeDatasetByName(spec.dataset, kPopulationSeed, spec.rows));
    const pb::Dataset data = Bootstrap(served->population.back(),
                                       pb::DeriveSeed(seed, 100 + stream));
    const uint64_t fit_seed = pb::DeriveSeed(seed, 200 + stream);
    pb::MarginalStore::Instance().Clear();
    pb::Rng rng(fit_seed);
    pb::PrivBayesModel model = mechanism.Fit(data, rng);
    ++run.attempted;
    run.Check(SpendsEpsilon(model),
              spec.name + ": epsilon1 + epsilon2 == epsilon");
    served->registry.Put(spec.name, std::move(model));
  }
  return served;
}

// ---------------------------------------------------------- fit schedule --

struct FitScheduleResult {
  // Untraced PrivBayes::Fit times, per population.
  std::vector<std::vector<double>> cold_s, warm_s;
  std::vector<double> tvd;  // tvd2 of the first kTvdFits cold fits
  pb::Dataset first_data;   // the first pair's input and cold fit
  pb::PrivBayesModel first_model;
  pb::MarginalStoreStats store;  // counters over the first cold+warm pair
  pb::JointCacheStats joints;    // first traced cold learn
};

// Pair i fits a bootstrap sample of populations[i % size]. tvd2 is computed
// between pairs, outside the timed fits.
FitScheduleResult RunFitSchedule(const std::vector<pb::Dataset>& populations,
                                 uint64_t seed, double budget_s,
                                 uint64_t min_fits, Tracer& tracer, Run& run) {
  FitScheduleResult r;
  r.cold_s.resize(populations.size());
  r.warm_s.resize(populations.size());
  const pb::PrivBayesOptions options = FitOptions();
  const pb::PrivBayes mechanism(options);
  pb::MarginalStore& store = pb::MarginalStore::Instance();
  const double start = Now();
  double last_iteration = 0;
  for (uint64_t i = 0;; ++i) {
    const double elapsed = Now() - start;
    if (i >= min_fits && elapsed + last_iteration > budget_s) break;
    const double t_iter = Now();
    const uint64_t fit_seed = pb::DeriveSeed(kScheduleSeed, 1000 + i);
    const size_t p = i % populations.size();
    const pb::Dataset data =
        Bootstrap(populations[p], pb::DeriveSeed(seed, 2000 + i));

    store.Clear();
    pb::Rng rng(fit_seed);
    double t0 = Now();
    pb::PrivBayesModel cold = mechanism.Fit(data, rng);
    r.cold_s[p].push_back(Now() - t0);
    ++run.attempted;
    pb::Rng again(fit_seed);
    t0 = Now();
    pb::PrivBayesModel warm = mechanism.Fit(data, again);
    r.warm_s[p].push_back(Now() - t0);
    ++run.attempted;
    if (i == 0) r.store = store.stats();
    run.Check(SameNetwork(cold, warm), "refit network == cold fit");
    run.Check(SpendsEpsilon(cold), "epsilon1 + epsilon2 == epsilon");

    if (tracer.enabled()) {
      // The same pair again, decomposed and traced.
      store.Clear();
      pb::JointCacheStats joints;
      pb::PrivBayesModel traced;
      {
        ScopedSpan span(tracer, "fit.cold");
        pb::Rng trng(fit_seed);
        traced = FitDecomposed(data, options, trng, tracer, &joints);
      }
      {
        ScopedSpan span(tracer, "bn.compile");
        pb::NetworkSampler sampler(traced.encoded_schema, traced.network,
                                   traced.conditionals);
      }
      {
        ScopedSpan span(tracer, "fit.warm");
        pb::Rng trng(fit_seed);
        pb::PrivBayesModel traced_warm =
            FitDecomposed(data, options, trng, tracer, nullptr);
        run.Check(SameNetwork(traced, traced_warm),
                  "traced refit network == traced cold fit");
      }
      if (i == 0) r.joints = joints;
      run.Check(SameNetwork(traced, cold), "decomposed fit network == Fit");
    }
    if (r.tvd.size() < kTvdFits) {
      r.tvd.push_back(Tvd2(data, cold, pb::DeriveSeed(seed, 7000 + i)));
    }
    if (i == 0) {
      r.first_data = data;
      r.first_model = std::move(cold);
    }
    last_iteration = Now() - t_iter;
  }
  return r;
}

// Engine vs naive counting over the learned network's joints, bypassing
// the MarginalStore. Counts must be bit-identical.
void CountProbe(const pb::Dataset& data, const pb::BayesNet& net,
                Tracer& tracer, Run& run) {
  std::vector<std::vector<pb::GenAttr>> sets;
  for (const pb::APPair& pair : net.pairs()) {
    std::vector<pb::GenAttr> g = pair.parents;
    g.push_back({pair.attr, 0});
    sets.push_back(std::move(g));
  }
  std::vector<double> engine_s, naive_s;
  bool same = true;
  const double start = Now();
  while (engine_s.empty() || Now() - start < 0.3) {
    std::vector<pb::ProbTable> engine, naive;
    {
      ScopedSpan span(tracer, "data.count");
      const double t0 = Now();
      for (const auto& g : sets) {
        engine.push_back(data.JointCountsGeneralized(g));
      }
      engine_s.push_back(Now() - t0);
    }
    {
      ScopedSpan span(tracer, "data.count_naive");
      const double t0 = Now();
      for (const auto& g : sets) {
        naive.push_back(data.JointCountsGeneralizedNaive(g));
      }
      naive_s.push_back(Now() - t0);
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      same = same && engine[i].values() == naive[i].values();
    }
  }
  run.Check(same, "engine joint counts == naive joint counts");
  const double rows = static_cast<double>(sets.size()) *
                      static_cast<double>(data.num_rows());
  run.per_layer["data.count_rows_per_s"] = {rows / Median(engine_s), "rows/s",
                                            engine_s.size()};
  run.per_layer["data.count_naive_ratio"] = {Median(naive_s) / Median(engine_s),
                                             "ratio", engine_s.size()};
}

// Fit layers from the traced decomposed pairs: self times, store counters,
// and the check that the layers add up to the untraced Fit.
void FitLayers(const Tracer& tracer, const FitScheduleResult& fits, bool smoke,
               Run& run) {
  const auto cold = [&](const char* n) {
    return tracer.SelfTimes(n, "fit.cold");
  };
  const double encode_s = Median(cold("data.encode"));
  const double learn_s = Median(cold("core.learn"));
  const double learn_warm_s =
      Median(tracer.SelfTimes("core.learn", "fit.warm"));
  const double noise_s = Median(cold("core.noise"));
  const double root_self = Median(tracer.SelfTimes("fit.cold", ""));
  const size_t n = cold("core.learn").size();
  run.per_layer["data.encode_s"] = {encode_s, "s", n};
  run.per_layer["core.learn_s"] = {learn_s, "s", n};
  run.per_layer["core.learn_warm_s"] = {learn_warm_s, "s", n};
  run.per_layer["data.count_s"] = {learn_s - learn_warm_s, "s", n};
  run.per_layer["core.noise_s"] = {noise_s, "s", n};
  run.per_layer["bn.compile_s"] = {
      Median(tracer.SelfTimes("bn.compile", "")), "s", n};
  auto count = [&run](const char* name, uint64_t value, const char* unit) {
    run.per_layer[name] = {static_cast<double>(value), unit, 1};
  };
  count("core.learn_joints", fits.joints.hits + fits.joints.misses, "count");
  const pb::MarginalStoreStats& st = fits.store;
  count("data.store_hits", st.hits, "count");
  count("data.store_misses", st.misses, "count");
  count("data.store_evictions", st.evictions, "count");
  count("data.store_bytes", st.bytes, "bytes");
  const double lookups = static_cast<double>(st.hits + st.misses);
  run.per_layer["data.store_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(st.hits) / lookups : 0, "ratio", 1};

  // Reconcile: the layers of the traced cold fit against the untraced
  // PrivBayes::Fit of the same run.
  const double layers = encode_s + learn_s + noise_s + root_self;
  const double e2e = Median(Concat(fits.cold_s));
  const double error = std::abs(layers - e2e) / e2e;
  run.per_layer["trace.fit_reconcile_error"] = {error, "ratio", n};
  // Tracing overhead: the traced cold fit against the untraced one.
  run.per_layer["trace.overhead_ratio"] = {
      Median(tracer.Durations("fit.cold")) / e2e, "ratio", n};
  std::printf("fit layers (self s, median of %zu): data.encode %.6f  "
              "core.learn %.6f  core.noise %.6f  fit.cold %.6f  sum %.6f "
              "vs untraced Fit %.6f\n",
              n, encode_s, learn_s, noise_s, root_self, layers, e2e);
  if (!smoke) {  // smoke sizes take milliseconds: too short to time
    run.Check(error <= kReconcileTolerance,
              "fit layer self times reconcile with the untraced Fit");
  }
}

// --------------------------------------------------------------- release --

struct Kept {
  std::string model;
  uint64_t seed = 0;
  pb::Dataset rows;
};

struct ConnectionResult {
  std::vector<double> latency_ms;  // successful requests
  int64_t rows = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t retries = 0;
  double end = 0;
  std::vector<Kept> kept;
  std::string first_error;
};

// Closed loop: the next request goes out when the previous reply is in.
void Connection(int port, uint64_t index,
                const std::vector<std::string>& models, int64_t rows,
                uint64_t seed, double deadline, ConnectionResult* out) {
  auto fail = [out](const std::string& what) {
    ++out->failed;
    if (out->first_error.empty()) out->first_error = what;
  };
  try {
    pb::ServeClient client("127.0.0.1", port,
                           pb::RetryPolicy::WithRetries(4, seed));
    for (uint64_t i = 0; Now() < deadline; ++i) {
      const std::string& model = models[(i + index) % models.size()];
      const uint64_t request_seed = pb::DeriveSeed(seed, i);
      ++out->attempted;
      try {
        const double t0 = Now();
        pb::Dataset reply = client.SampleBinary(model, rows, request_seed);
        out->latency_ms.push_back((Now() - t0) * 1e3);
        if (reply.num_rows() != rows) {
          fail("reply has " + std::to_string(reply.num_rows()) +
               " rows, asked " + std::to_string(rows));
          continue;
        }
        out->rows += rows;
        if (i % kKeepEvery == 0 && out->kept.size() < kKeepMax) {
          out->kept.push_back({model, request_seed, std::move(reply)});
        }
      } catch (const pb::ServeError& e) {
        fail(e.what());
      }
    }
    out->retries = client.retries();
    client.Quit();
  } catch (const std::exception& e) {
    ++out->attempted;
    fail(e.what());
  }
  out->end = Now();
}

struct ReleaseResult {
  double rows_per_s = 0;
  std::vector<double> bulk_ms, small_ms;
};

ReleaseResult RunRelease(const Workload& w, Served& served, uint64_t seed,
                         double budget_s, Run& run) {
  pb::ServeServer server(&served.registry);
  server.Start();
  std::vector<std::string> models;
  for (const ModelSpec& spec : w.served) models.push_back(spec.name);

  const size_t connections = kBulkConnections + 1;
  std::vector<ConnectionResult> results(connections);
  const double start = Now();
  const double deadline = start + budget_s;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      const bool bulk = c < kBulkConnections;
      threads.emplace_back(Connection, server.port(), c, std::cref(models),
                           bulk ? w.bulk_rows : w.small_rows,
                           pb::DeriveSeed(seed, 3000 + c),
                           deadline, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  server.Stop();

  ReleaseResult r;
  double end = start;
  int64_t rows = 0;
  uint64_t retries = 0;
  for (size_t c = 0; c < connections; ++c) {
    ConnectionResult& cr = results[c];
    run.attempted += cr.attempted;
    run.failed += cr.failed;
    if (!cr.first_error.empty()) {
      std::printf("connection %zu: %" PRId64 " failed, first: %s\n", c,
                  cr.failed, cr.first_error.c_str());
    }
    auto& lat = c < kBulkConnections ? r.bulk_ms : r.small_ms;
    lat.insert(lat.end(), cr.latency_ms.begin(), cr.latency_ms.end());
    rows += cr.rows;
    retries += cr.retries;
    end = std::max(end, cr.end);
    for (const Kept& k : cr.kept) {
      std::shared_ptr<const pb::ServableModel> handle =
          served.registry.Get(k.model);
      pb::Rng rng(k.seed);
      pb::Dataset local =
          pb::SampleSyntheticData(handle->model(), k.rows.num_rows(), rng);
      run.Check(SameCells(k.rows, local),
                "served rows bit-identical to local SampleSyntheticData (" +
                    k.model + ")");
    }
  }
  r.rows_per_s = static_cast<double>(rows) / (end - start);

  const pb::ServeServerStats stats = server.stats();
  const pb::AdmissionGate& gate = server.sampling().admission();
  const double batches =
      static_cast<double>(gate.admitted_total() + gate.bypassed_total());
  auto count = [&run](const char* name, uint64_t value) {
    run.per_layer[name] = {static_cast<double>(value), "count", 1};
  };
  count("serve.requests", stats.requests);
  count("serve.errors", stats.errors);
  count("serve.retries", retries);
  run.per_layer["serve.inline_ratio"] = {
      batches > 0 ? static_cast<double>(gate.bypassed_total()) / batches : 0,
      "ratio", 1};
  count("serve.write_stalls",
        server.metrics()
            .GetCounter("privbayes_serve_write_stalls_total", "", "")
            ->Value());
  return r;
}

// Discards rows; SamplingService::Sample with it times sample + decode.
class CountingSink : public pb::RowSink {
 public:
  void Chunk(const pb::Dataset& rows) override { rows_ += rows.num_rows(); }
  int64_t rows() const { return rows_; }

 private:
  int64_t rows_ = 0;
};

// In-process release pipeline at bulk size, serial: untraced
// SamplingService + BinaryRowSink (the end-to-end of the layers), then the
// same request decomposed, chunk by chunk as SamplingService cuts it, into
// SampleChunk, DecodeToOriginal and BinaryRowSink under spans, then
// SamplingService alone.
void ReleaseProbe(const Workload& w, Served& served, uint64_t seed,
                  double bulk_p50_s, bool smoke, Tracer& tracer, Run& run) {
  const pb::SamplingService service(&served.registry);
  std::vector<double> untraced_s, frame_bytes, service_s;
  for (int p = 0; p < kReleaseProbes; ++p) {
    const ModelSpec& spec = w.served[static_cast<size_t>(p) % w.served.size()];
    pb::SampleRequest request;
    request.model = spec.name;
    request.num_rows = w.bulk_rows;
    request.seed = pb::DeriveSeed(seed, 9000 + static_cast<uint64_t>(p));
    {
      std::ostringstream out;
      pb::BinaryRowSink sink(out);
      const double t0 = Now();
      service.Sample(request, sink);
      untraced_s.push_back(Now() - t0);
    }
    std::shared_ptr<const pb::ServableModel> handle =
        served.registry.Get(spec.name);
    const pb::PrivBayesModel& model = handle->model();
    {
      ScopedSpan root(tracer, "release.local");
      pb::Rng rng(request.seed);
      const uint64_t base_seed = rng.engine()();
      std::ostringstream out;
      pb::BinaryRowSink sink(out);
      {
        ScopedSpan span(tracer, "serve.frame");
        sink.Begin(model.original_schema);
      }
      constexpr int64_t kChunk = pb::SamplingService::kDefaultChunkRows;
      for (int64_t row = 0; row < w.bulk_rows; row += kChunk) {
        pb::Dataset encoded;
        {
          ScopedSpan span(tracer, "bn.sample");
          encoded = handle->sampler().SampleChunk(
              base_seed, row / pb::NetworkSampler::kShardRows,
              std::min(kChunk, w.bulk_rows - row));
        }
        pb::Dataset decoded;
        {
          ScopedSpan span(tracer, "data.decode");
          decoded = pb::DecodeToOriginal(encoded, model.original_schema,
                                         model.encoding, model.encoder.get());
        }
        ScopedSpan span(tracer, "serve.frame");
        sink.Chunk(decoded);
      }
      {
        ScopedSpan span(tracer, "serve.frame");
        sink.End();
      }
      frame_bytes.push_back(static_cast<double>(out.tellp()));
    }
    {
      ScopedSpan span(tracer, "serve.service");
      CountingSink sink;
      const double t0 = Now();
      service.Sample(request, sink);
      service_s.push_back(Now() - t0);
      run.Check(sink.rows() == w.bulk_rows, "SamplingService row count");
    }
  }
  const double rows = static_cast<double>(w.bulk_rows);
  const auto self = [&](const char* n) {
    return Median(tracer.SelfTimes(n, "release.local"));
  };
  const double sample_s = self("bn.sample");
  const double decode_s = self("data.decode");
  const double frame_s = self("serve.frame");
  const double root_self = Median(tracer.SelfTimes("release.local", ""));
  const size_t n = static_cast<size_t>(kReleaseProbes);
  run.per_layer["bn.sample_rows_per_s"] = {rows / sample_s, "rows/s", n};
  run.per_layer["data.decode_rows_per_s"] = {rows / decode_s, "rows/s", n};
  run.per_layer["serve.frame_rows_per_s"] = {rows / frame_s, "rows/s", n};
  run.per_layer["serve.frame_bytes_per_row"] = {Median(frame_bytes) / rows,
                                                "bytes/row", n};
  run.per_layer["serve.service_s"] = {Median(service_s), "s", n};
  run.per_layer["serve.wire_s"] = {bulk_p50_s - Median(service_s) - frame_s,
                                   "s", n};
  const double e2e = Median(untraced_s);
  const double layers = sample_s + decode_s + frame_s + root_self;
  const double error = std::abs(layers - e2e) / e2e;
  run.per_layer["trace.release_reconcile_error"] = {error, "ratio", n};
  std::printf("release layers (self s, median of %zu): bn.sample %.6f  "
              "data.decode %.6f  serve.frame %.6f  release.local %.6f  "
              "sum %.6f vs SamplingService+BinaryRowSink %.6f\n",
              n, sample_s, decode_s, frame_s, root_self, layers, e2e);
  if (!smoke) {  // smoke sizes take milliseconds: too short to time
    run.Check(error <= kReconcileTolerance,
              "release layer self times reconcile with the local pipeline");
  }
}

// ------------------------------------------------------------------- host --

std::string HostJson(const std::string& workload, uint64_t seed,
                     int seconds, int trace, const std::string& commit,
                     const std::string& source_sha) {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"pool_threads\":" << pb::ThreadPool::Global().num_threads()
    << ",\"simd_detected\":\"" << pb::SimdLevelName(pb::DetectedSimdLevel())
    << "\",\"simd_active\":\"" << pb::SimdLevelName(pb::ActiveSimd().level)
    << "\",\"avx512_vpopcntdq\":"
    << (pb::CpuHasAvx512Vpopcntdq() ? "true" : "false")
    << ",\"numa_nodes\":" << pb::NumaTopo().num_nodes()
    << ",\"build_type\":\"" << JsonEscape(E2EBENCH_BUILD_TYPE)
    << "\",\"cxx_flags\":\"" << JsonEscape(E2EBENCH_CXX_FLAGS)
    << "\",\"compiler\":\"" << JsonEscape(E2EBENCH_COMPILER)
    << "\",\"commit\":\"" << JsonEscape(commit)
    << "\",\"source_sha\":\"" << JsonEscape(source_sha)
    << "\",\"workload\":\"" << JsonEscape(workload) << "\",\"seed\":" << seed
    << ",\"seconds\":" << seconds << ",\"trace\":" << trace << "}";
  return o.str();
}

std::string ResultJson(const Run& run, const std::map<std::string, Metric>& m) {
  std::ostringstream o;
  o << "{\"correct\":" << (run.failed == 0 ? "true" : "false")
    << ",\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
      << Num(metric.value) << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload fit_binary|fit_general|release "
               "--seed N --seconds S --trace 0|1 [--smoke] [--spans FILE] "
               "[--commit C] [--source-sha H]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, spans_path;
  std::string commit = "unknown", source_sha = "unknown";
  uint64_t seed = 0;
  int seconds = 0, trace = -1;
  bool smoke = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atoi(next().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(next().c_str());
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--spans") {
      spans_path = next();
    } else if (arg == "--commit") {
      commit = next();
    } else if (arg == "--source-sha") {
      source_sha = next();
    } else {
      Usage();
    }
  }
  if (workload_name.empty() || !have_seed || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    Usage();
  }

  try {
    const Workload w = MakeWorkload(workload_name, smoke);
    const std::string host =
        HostJson(workload_name, seed, seconds, trace, commit, source_sha);
    std::printf("host %s\n", host.c_str());
    Run run;
    Tracer tracer(trace == 1);

    // Set-up, repeated; the served state of the last repetition is kept.
    std::vector<double> setup_s;
    std::unique_ptr<Served> served;
    const int reps = smoke ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
      served.reset();
      const double t0 = Now();
      served = SetUp(w, seed, rep, run);
      setup_s.push_back(Now() - t0);
    }

    const double budget = static_cast<double>(seconds);
    const FitScheduleResult fits =
        RunFitSchedule(served->population, seed, w.fit_share * budget,
                       smoke ? w.served.size() : kMinFits,
                       tracer, run);
    const ReleaseResult release =
        RunRelease(w, *served, seed, (1.0 - w.fit_share) * budget, run);
    const double bulk_p50_ms = Median(release.bulk_ms);

    if (tracer.enabled()) {
      FitLayers(tracer, fits, smoke, run);
      CountProbe(fits.first_data, fits.first_model.network, tracer, run);
      ReleaseProbe(w, *served, seed, bulk_p50_ms / 1e3, smoke, tracer, run);
    }

    double tvd_mean = 0;
    for (double v : fits.tvd) tvd_mean += v;
    tvd_mean /= static_cast<double>(fits.tvd.size());
    // With several populations (release), fitting the served set takes the
    // sum of the per-population medians.
    double fit_s = 0, refit_s = 0;
    std::printf("samples setup_s [%s] tvd2 [%s]\n", List(setup_s).c_str(),
                List(fits.tvd).c_str());
    for (size_t p = 0; p < w.served.size(); ++p) {
      fit_s += Median(fits.cold_s[p]);
      refit_s += Median(fits.warm_s[p]);
      std::printf("samples %s fit_s [%s] refit_s [%s]\n",
                  w.served[p].dataset.c_str(), List(fits.cold_s[p]).c_str(),
                  List(fits.warm_s[p]).c_str());
    }
    const size_t fits_run = Concat(fits.cold_s).size();

    auto& e = run.end_to_end;
    e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
    e["fit_s"] = {fit_s, "s", fits_run};
    e["refit_s"] = {refit_s, "s", fits_run};
    e["tvd2"] = {tvd_mean, "tvd", fits.tvd.size()};
    e["peak_rss_mb"] = {static_cast<double>(pb::PeakRssKb()) / 1024.0, "MB", 1};
    e["release_rows_per_s"] = {release.rows_per_s, "rows/s", 1};
    e["release_bulk_p50_ms"] = {bulk_p50_ms, "ms", release.bulk_ms.size()};
    e["release_small_p50_ms"] = {Median(release.small_ms), "ms",
                                 release.small_ms.size()};
    e["release_small_p99_ms"] = {Quantile(release.small_ms, 0.99), "ms",
                                 release.small_ms.size()};
    run.Check(!release.bulk_ms.empty() && !release.small_ms.empty(),
              "release phase completed requests on every connection class");

    const double error_ratio =
        static_cast<double>(run.failed) / static_cast<double>(run.attempted);
    std::printf("metric error_ratio %.6g ratio (failed %" PRId64
                " of %" PRId64 ")\n",
                error_ratio, run.failed, run.attempted);
    const auto& shown = trace == 1 ? run.per_layer : run.end_to_end;
    for (const auto& [name, m] : run.end_to_end) {
      std::printf("metric %s %.6g %s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    for (const auto& [name, m] : run.per_layer) {
      std::printf("layer %s %.6g %s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    if (tracer.enabled() && !spans_path.empty() &&
        !tracer.Write(spans_path, host)) {
      std::fprintf(stderr, "error: cannot write spans to %s\n",
                   spans_path.c_str());
      return 1;
    }
    std::printf("%s\n", ResultJson(run, shown).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
