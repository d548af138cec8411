#include "core/recalibrator.h"

#include <gtest/gtest.h>

#include <map>

namespace cortex {
namespace {

// --- ThresholdForPrecision (Algorithm 1 lines 7-9) ---

TEST(ThresholdForPrecision, EmptyInputHasNoThreshold) {
  EXPECT_FALSE(
      Recalibrator::ThresholdForPrecision({}, 0.9).has_value());
}

TEST(ThresholdForPrecision, AllCorrectPicksLowestScore) {
  std::vector<LabeledSample> samples = {
      {0.9, true}, {0.7, true}, {0.5, true}};
  const auto tau = Recalibrator::ThresholdForPrecision(samples, 0.99);
  ASSERT_TRUE(tau.has_value());
  EXPECT_DOUBLE_EQ(*tau, 0.5);  // most permissive while meeting the target
}

TEST(ThresholdForPrecision, ExcludesWrongLowScoredAnswers) {
  std::vector<LabeledSample> samples = {
      {0.95, true}, {0.9, true}, {0.8, true}, {0.4, false}, {0.3, false}};
  const auto tau = Recalibrator::ThresholdForPrecision(samples, 0.99);
  ASSERT_TRUE(tau.has_value());
  EXPECT_DOUBLE_EQ(*tau, 0.8);
}

TEST(ThresholdForPrecision, RelaxedTargetAdmitsSomeErrors) {
  std::vector<LabeledSample> samples = {
      {0.9, true}, {0.8, true}, {0.7, true}, {0.6, false}, {0.5, true}};
  // At tau=0.5: precision 4/5 = 0.8.
  const auto strict = Recalibrator::ThresholdForPrecision(samples, 0.99);
  const auto relaxed = Recalibrator::ThresholdForPrecision(samples, 0.8);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_DOUBLE_EQ(*strict, 0.7);
  EXPECT_DOUBLE_EQ(*relaxed, 0.5);
}

TEST(ThresholdForPrecision, UnreachableTargetReturnsNothing) {
  std::vector<LabeledSample> samples = {{0.9, false}, {0.5, false}};
  EXPECT_FALSE(
      Recalibrator::ThresholdForPrecision(samples, 0.9).has_value());
}

TEST(ThresholdForPrecision, TiedScoresAreNotSplit) {
  // Both 0.7 samples sit on one side of any threshold; the cutoff cannot
  // separate the correct one from the incorrect one.
  std::vector<LabeledSample> samples = {
      {0.9, true}, {0.7, true}, {0.7, false}};
  const auto tau = Recalibrator::ThresholdForPrecision(samples, 0.95);
  ASSERT_TRUE(tau.has_value());
  EXPECT_DOUBLE_EQ(*tau, 0.9);
}

// --- Full recalibration rounds ---

class ScriptedGt {
 public:
  void Set(std::string query, std::string truth) {
    truth_[std::move(query)] = std::move(truth);
  }
  std::string operator()(std::string_view query) const {
    const auto it = truth_.find(std::string(query));
    return it == truth_.end() ? std::string{} : it->second;
  }

 private:
  std::map<std::string, std::string> truth_;
};

TEST(Recalibrator, EmptyLogRoundIsNoop) {
  Recalibrator recal;
  Rng rng(1);
  const auto round = recal.RunRound([](std::string_view) { return ""; }, rng);
  EXPECT_FALSE(round.new_tau.has_value());
  EXPECT_EQ(round.gt_fetches, 0u);
}

TEST(Recalibrator, RoundAnnotatesSampledJudgments) {
  RecalibratorOptions opts;
  opts.samples_per_round = 3;
  Recalibrator recal(opts);
  ScriptedGt gt;
  for (int i = 0; i < 10; ++i) {
    const std::string q = std::string("q").append(std::to_string(i));
    gt.Set(q, "truth");
    recal.LogJudgment({q, "cached-q", i % 2 ? "truth" : "wrong", 0.5 + i * 0.04});
  }
  Rng rng(2);
  const auto round = recal.RunRound(gt, rng);
  EXPECT_EQ(round.gt_fetches, 3u);
  EXPECT_EQ(round.annotated, 3u);
  EXPECT_EQ(recal.validation_size(), 3u);
}

TEST(Recalibrator, FailedGtFetchesAreSkippedNotMislabelled) {
  RecalibratorOptions opts;
  opts.samples_per_round = 5;
  Recalibrator recal(opts);
  for (int i = 0; i < 5; ++i) {
    recal.LogJudgment({std::string("q").append(std::to_string(i)), "k",
                       "correct value", 0.9});
  }
  Rng rng(3);
  // Ground truth unavailable: fetches happen, nothing is annotated.
  const auto round =
      recal.RunRound([](std::string_view) { return ""; }, rng);
  EXPECT_EQ(round.gt_fetches, 5u);
  EXPECT_EQ(round.annotated, 0u);
  EXPECT_EQ(recal.validation_size(), 0u);
}

TEST(Recalibrator, ConvergesToThresholdSeparatingGoodFromBad) {
  RecalibratorOptions opts;
  opts.samples_per_round = 10;
  opts.target_precision = 0.999;  // strict: no labelled error admissible
  Recalibrator recal(opts);
  ScriptedGt gt;
  // Judger behaviour: correct answers score ~0.8+, wrong ones ~0.4-.
  for (int i = 0; i < 60; ++i) {
    const std::string q = std::string("q").append(std::to_string(i));
    gt.Set(q, "truth");
    const bool good = i % 3 != 0;
    recal.LogJudgment({q, "k", good ? "truth" : "stale",
                       good ? 0.8 + (i % 10) * 0.01 : 0.4 - (i % 10) * 0.01});
  }
  Rng rng(4);
  std::optional<double> tau;
  for (int round = 0; round < 6; ++round) {
    const auto r = recal.RunRound(gt, rng);
    if (r.new_tau) tau = r.new_tau;
  }
  ASSERT_TRUE(tau.has_value());
  EXPECT_GE(*tau, 0.4);   // excludes the bad cluster (scores <= 0.40)
  EXPECT_LE(*tau, 0.85);  // keeps the good cluster (scores >= 0.80)
}

TEST(Recalibrator, ThresholdClampedToConfiguredRange) {
  RecalibratorOptions opts;
  opts.samples_per_round = 10;
  opts.min_tau = 0.3;
  opts.max_tau = 0.9;
  opts.target_precision = 0.5;
  Recalibrator recal(opts);
  ScriptedGt gt;
  for (int i = 0; i < 40; ++i) {
    const std::string q = std::string("q").append(std::to_string(i));
    gt.Set(q, "truth");
    // Everything correct with tiny scores: unclamped threshold would be ~0.01.
    recal.LogJudgment({q, "k", "truth", 0.01 + i * 0.001});
  }
  Rng rng(5);
  std::optional<double> tau;
  for (int round = 0; round < 4; ++round) {
    if (auto r = recal.RunRound(gt, rng); r.new_tau) tau = r.new_tau;
  }
  ASSERT_TRUE(tau.has_value());
  EXPECT_GE(*tau, 0.3);
}

TEST(Recalibrator, LogIsBounded) {
  RecalibratorOptions opts;
  opts.max_log = 10;
  Recalibrator recal(opts);
  for (int i = 0; i < 100; ++i) {
    recal.LogJudgment({"q", "k", "v", 0.5});
  }
  EXPECT_EQ(recal.log_size(), 10u);
}

TEST(Recalibrator, ValidationSetIsBounded) {
  RecalibratorOptions opts;
  opts.samples_per_round = 10;
  opts.max_validation_set = 15;
  Recalibrator recal(opts);
  ScriptedGt gt;
  for (int i = 0; i < 30; ++i) {
    const std::string q = std::string("q").append(std::to_string(i));
    gt.Set(q, "t");
    recal.LogJudgment({q, "k", "t", 0.5});
  }
  Rng rng(6);
  for (int round = 0; round < 5; ++round) recal.RunRound(gt, rng);
  EXPECT_LE(recal.validation_size(), 15u);
}

TEST(Recalibrator, AnnotationsExposeTheValidationSet) {
  RecalibratorOptions opts;
  opts.samples_per_round = 4;
  Recalibrator recal(opts);
  ScriptedGt gt;
  for (int i = 0; i < 8; ++i) {
    const std::string q = std::string("q").append(std::to_string(i));
    gt.Set(q, "truth");
    recal.LogJudgment({q, "k", i % 2 ? "truth" : "wrong", 0.5});
  }
  Rng rng(7);
  recal.RunRound(gt, rng);
  const auto annotations = recal.Annotations();
  EXPECT_EQ(annotations.size(), recal.validation_size());
  EXPECT_EQ(annotations.size(), 4u);
}

}  // namespace
}  // namespace cortex
