// Tests for svm/: featurizer geometry, Pegasos on separable data, Huber ERM
// convergence, misclassification metric.

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "svm/linear_svm.h"

namespace privbayes {
namespace {

Schema ThreeAttr() {
  return Schema({Attribute::Categorical("f1", 3), Attribute::Binary("label"),
                 Attribute::Categorical("f2", 4)});
}

// Label = 1 iff f1 == 2 (perfectly separable by one-hot features).
Dataset Separable(int n, uint64_t seed) {
  Schema s = ThreeAttr();
  std::vector<std::vector<Value>> cols(3, std::vector<Value>(n));
  Rng rng(seed);
  for (int r = 0; r < n; ++r) {
    Value f1 = static_cast<Value>(rng.UniformInt(3));
    cols[0][r] = f1;
    cols[1][r] = f1 == 2 ? 1 : 0;
    cols[2][r] = static_cast<Value>(rng.UniformInt(4));
  }
  return Dataset::FromColumns(s, std::move(cols));
}

TEST(LabelSpec, PositiveValues) {
  Dataset d = Separable(10, 1);
  LabelSpec label{"lab", 1, {1}};
  for (int r = 0; r < 10; ++r) {
    EXPECT_EQ(label.LabelOf(d, r), d.at(r, 1) == 1 ? 1 : -1);
  }
  LabelSpec multi{"f1-high", 0, {1, 2}};
  for (int r = 0; r < 10; ++r) {
    EXPECT_EQ(multi.LabelOf(d, r), d.at(r, 0) >= 1 ? 1 : -1);
  }
}

TEST(Featurizer, DimensionAndUnitNorm) {
  Schema s = ThreeAttr();
  SparseFeaturizer fz(s, 1);
  // f1 (3) + f2 (4) + bias = 8.
  EXPECT_EQ(fz.dim(), 8);
  // ‖x‖₂ = value · sqrt(active) = 1 with active = d = 3 (2 attrs + bias).
  EXPECT_NEAR(fz.feature_value() * std::sqrt(3.0), 1.0, 1e-12);
  Dataset d = Separable(5, 2);
  std::vector<int> active;
  fz.ActiveIndices(d, 0, &active);
  EXPECT_EQ(active.size(), 3u);
  EXPECT_EQ(active.back(), fz.dim() - 1);  // bias always last
}

TEST(Featurizer, DotMatchesManualComputation) {
  Schema s = ThreeAttr();
  SparseFeaturizer fz(s, 1);
  Dataset d = Separable(3, 3);
  std::vector<double> w(fz.dim());
  for (int i = 0; i < fz.dim(); ++i) w[i] = i + 1;
  std::vector<int> active;
  fz.ActiveIndices(d, 0, &active);
  double expect = 0;
  for (int idx : active) expect += w[idx] * fz.feature_value();
  EXPECT_NEAR(fz.Dot(w, d, 0), expect, 1e-12);
}

TEST(Pegasos, LearnsSeparableConcept) {
  Dataset train = Separable(2000, 4);
  Dataset test = Separable(500, 5);
  LabelSpec label{"lab", 1, {1}};
  PegasosOptions opts;
  opts.epochs = 30;
  Rng rng(6);
  SvmModel model = TrainHingeSvm(train, label, opts, rng);
  EXPECT_LT(MisclassificationRate(test, label, model), 0.02);
}

TEST(Pegasos, BeatsMajorityOnGeneratedData) {
  Dataset data = MakeNltcs(7, 6000);
  Rng split_rng(8);
  auto [train, test] = data.Split(0.8, split_rng);
  LabelSpec label{"outside", 0, {1}};
  Rng rng(9);
  SvmModel model = TrainHingeSvm(train, label, PegasosOptions{}, rng);
  double err = MisclassificationRate(test, label, model);
  double base = PositiveRate(test, label);
  double majority = std::min(base, 1 - base);
  EXPECT_LE(err, majority + 0.02);
}

TEST(Pegasos, ObjectiveDecreasesVsZeroModel) {
  Dataset train = Separable(1000, 10);
  LabelSpec label{"lab", 1, {1}};
  SparseFeaturizer fz(train.schema(), 1);
  Rng rng(11);
  SvmModel model = TrainHingeSvm(train, label, PegasosOptions{}, rng);
  SvmModel zero{std::vector<double>(fz.dim(), 0.0)};
  double lambda = 1.0 / train.num_rows();
  EXPECT_LT(HingeObjective(train, label, fz, model, lambda),
            HingeObjective(train, label, fz, zero, lambda));
}

TEST(HuberErm, ConvergesOnSeparableData) {
  Dataset train = Separable(1500, 12);
  Dataset test = Separable(300, 13);
  LabelSpec label{"lab", 1, {1}};
  HuberErmOptions opts;
  opts.lambda = 1e-4;
  opts.iterations = 400;
  SvmModel model = TrainHuberErm(train, label, opts, {});
  EXPECT_LT(MisclassificationRate(test, label, model), 0.05);
}

TEST(HuberErm, PerturbationVectorShiftsSolution) {
  Dataset train = Separable(500, 14);
  LabelSpec label{"lab", 1, {1}};
  HuberErmOptions opts;
  SparseFeaturizer fz(train.schema(), 1);
  SvmModel base = TrainHuberErm(train, label, opts, {});
  std::vector<double> b(fz.dim(), 50.0);
  SvmModel shifted = TrainHuberErm(train, label, opts, b);
  double diff = 0;
  for (int i = 0; i < fz.dim(); ++i) diff += std::abs(base.w[i] - shifted.w[i]);
  EXPECT_GT(diff, 1e-3);
  // Dimension mismatch rejected.
  std::vector<double> bad(3, 1.0);
  EXPECT_THROW(TrainHuberErm(train, label, opts, bad), std::invalid_argument);
}

TEST(Misclassification, HandComputed) {
  Schema s = ThreeAttr();
  Dataset test = Dataset::FromColumns(s, {{0, 0, 0, 0}, {0, 1, 0, 1},
                                          {0, 0, 0, 0}});
  LabelSpec label{"lab", 1, {1}};
  SparseFeaturizer fz(s, 1);
  // All-positive model predicts +1 for everything: errs on the two y=0 rows.
  SvmModel model{std::vector<double>(fz.dim(), 1.0)};
  EXPECT_DOUBLE_EQ(MisclassificationRate(test, label, model), 0.5);
}

TEST(PositiveRateFn, Matches) {
  Dataset d = Separable(300, 15);
  LabelSpec label{"lab", 1, {1}};
  double rate = PositiveRate(d, label);
  double manual = 0;
  for (int r = 0; r < d.num_rows(); ++r) manual += (d.at(r, 1) == 1);
  EXPECT_DOUBLE_EQ(rate, manual / d.num_rows());
}

}  // namespace
}  // namespace privbayes
