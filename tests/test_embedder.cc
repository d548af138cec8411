#include "embedding/hashed_embedder.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/stats.h"

namespace cortex {
namespace {

TEST(HashedEmbedder, OutputIsUnitLength) {
  HashedEmbedder e;
  for (const char* text :
       {"who painted the mona lisa", "apple", "a", "tokyo weather forecast"}) {
    EXPECT_NEAR(L2Norm(e.Embed(text)), 1.0, 1e-5) << text;
  }
}

TEST(HashedEmbedder, Deterministic) {
  HashedEmbedder e;
  EXPECT_EQ(e.Embed("everest height"), e.Embed("everest height"));
}

TEST(HashedEmbedder, DimensionIsConfigurable) {
  HashedEmbedderOptions opts;
  opts.dimension = 64;
  HashedEmbedder e(opts);
  EXPECT_EQ(e.dimension(), 64u);
  EXPECT_EQ(e.Embed("x").size(), 64u);
}

TEST(HashedEmbedder, DifferentSeedIsADifferentModel) {
  HashedEmbedderOptions a_opts, b_opts;
  b_opts.hash_seed = 12345;
  HashedEmbedder a(a_opts), b(b_opts);
  EXPECT_LT(CosineSimilarity(a.Embed("everest height"),
                             b.Embed("everest height")),
            0.9);
}

TEST(HashedEmbedder, StopwordsDoNotMoveTheVector) {
  HashedEmbedder e;
  const auto base = e.Embed("everest height");
  const auto decorated = e.Embed("what is the everest height please");
  EXPECT_NEAR(CosineSimilarity(base, decorated), 1.0, 1e-5);
}

TEST(HashedEmbedder, WordOrderBarelyMatters) {
  HashedEmbedder e;
  const double sim = CosineSimilarity(e.Embed("apple nutrition facts"),
                                      e.Embed("facts nutrition apple"));
  EXPECT_GT(sim, 0.9);
}

TEST(HashedEmbedder, SharedContentWordsIncreaseSimilarity) {
  HashedEmbedder e;
  const auto apple_nutrition = e.Embed("apple nutrition");
  const double trap = CosineSimilarity(apple_nutrition,
                                       e.Embed("apple stock price"));
  const double unrelated = CosineSimilarity(apple_nutrition,
                                            e.Embed("everest height"));
  EXPECT_GT(trap, unrelated);
  EXPECT_GT(trap, 0.2);
  EXPECT_LT(unrelated, 0.2);
}

TEST(HashedEmbedder, ParaphraseAboveTrapAboveRandomOnAverage) {
  HashedEmbedder e;
  // The calibrated ordering that Sine's thresholds rely on.
  StreamingStats para, trap, rnd;
  const char* entities[] = {"everest", "louvre", "bitcoin", "tokyo",
                            "beethoven"};
  const char* aspects[] = {"height", "history", "forecast", "origin",
                           "biography"};
  for (const char* ent : entities) {
    for (const char* asp : aspects) {
      const std::string q1 = std::string("what is the ") + asp + " of " + ent;
      const std::string q2 = std::string(ent) + " " + asp + " details";
      const std::string tq = std::string(ent) + " " + asp + " myths";
      para.Add(CosineSimilarity(e.Embed(q1), e.Embed(q2)));
      trap.Add(CosineSimilarity(e.Embed(q1), e.Embed(tq)));
      rnd.Add(CosineSimilarity(e.Embed(q1),
                               e.Embed("unrelated quantum banana")));
    }
  }
  EXPECT_GT(para.mean(), trap.mean());
  EXPECT_GT(trap.mean(), rnd.mean());
  EXPECT_GT(para.mean(), 0.6);
  EXPECT_LT(rnd.mean(), 0.2);
}

TEST(HashedEmbedder, DegenerateInputStillEmbedsConsistently) {
  HashedEmbedder e;
  // All-stopword input hashes the raw text instead of collapsing to zero.
  const auto a = e.Embed("the of and");
  EXPECT_NEAR(L2Norm(a), 1.0, 1e-5);
  EXPECT_EQ(a, e.Embed("the of and"));
  // And differs from another degenerate input.
  EXPECT_LT(CosineSimilarity(a, e.Embed("is it so")), 0.99);
}

TEST(HashedEmbedder, BigramWeightAddsOrderSensitivity) {
  HashedEmbedderOptions heavy;
  heavy.bigram_weight = 1.0;
  HashedEmbedderOptions none;
  none.bigram_weight = 0.0;
  HashedEmbedder with_bigrams(heavy), without(none);
  const double sim_with =
      CosineSimilarity(with_bigrams.Embed("red apple pie tin"),
                       with_bigrams.Embed("tin pie apple red"));
  const double sim_without = CosineSimilarity(
      without.Embed("red apple pie tin"), without.Embed("tin pie apple red"));
  EXPECT_NEAR(sim_without, 1.0, 1e-5);
  EXPECT_LT(sim_with, sim_without);
}

TEST(HashedEmbedder, SublinearTfDampensRepetition) {
  HashedEmbedder e;
  const double sim = CosineSimilarity(
      e.Embed("apple"), e.Embed("apple apple apple apple apple"));
  // Repetition only perturbs via self-bigrams; direction barely moves.
  EXPECT_GT(sim, 0.9);
}

TEST(HashedEmbedder, IdfWeightsSeparateContentFromBoilerplate) {
  HashedEmbedder e;
  EXPECT_DOUBLE_EQ(e.IdfWeight("anything"), 1.0);  // unfitted: neutral
  std::vector<std::string> corpus;
  for (int i = 0; i < 100; ++i) {
    corpus.push_back("find the height of entity_" + std::to_string(i));
  }
  e.FitIdf(corpus);
  ASSERT_TRUE(e.has_idf());
  // "find"/"height" appear in every document; entity tokens in one.
  EXPECT_LT(e.IdfWeight("find"), e.IdfWeight("entity_3"));
  // Unseen tokens are treated as maximally rare.
  EXPECT_GE(e.IdfWeight("neverseen"), e.IdfWeight("entity_3"));
}

TEST(HashedEmbedder, IdfImprovesParaphraseVsTemplateSeparation) {
  std::vector<std::string> corpus;
  const char* entities[] = {"everest", "louvre", "bitcoin", "tokyo"};
  const char* aspects[] = {"height", "history", "forecast", "origin"};
  for (const char* ent : entities) {
    for (const char* asp : aspects) {
      corpus.push_back(std::string("what is the ") + asp + " of " + ent);
      corpus.push_back(std::string("give me ") + ent + " " + asp + " facts");
      corpus.push_back(std::string("search ") + ent + " " + asp);
    }
  }
  HashedEmbedder plain;
  HashedEmbedder fitted;
  fitted.FitIdf(corpus);
  // Same topic, different templates vs same template, different topic.
  auto sep = [](const HashedEmbedder& e) {
    const double same_topic = CosineSimilarity(
        e.Embed("give me everest height facts"),
        e.Embed("search everest height"));
    const double same_template = CosineSimilarity(
        e.Embed("give me everest height facts"),
        e.Embed("give me bitcoin forecast facts"));
    return same_topic - same_template;
  };
  EXPECT_GT(sep(fitted), sep(plain));
}

// EmbedBatch writes row q at out + q*stride, bit-identical to Embed, and
// never touches the padding between rows.
TEST(HashedEmbedder, EmbedBatchRowsMatchEmbed) {
  HashedEmbedder e;
  e.FitIdf(std::vector<std::string>{"everest height", "tokyo weather"});
  const std::vector<std::string_view> texts = {
      "everest height", "", "what is the tokyo weather forecast", "a"};
  const std::size_t stride = e.dimension() + 5;
  std::vector<float> out(texts.size() * stride, -7.0f);
  e.EmbedBatch(texts, out.data(), stride);
  for (std::size_t q = 0; q < texts.size(); ++q) {
    const Vector got(out.begin() + q * stride,
                     out.begin() + q * stride + e.dimension());
    EXPECT_EQ(got, e.Embed(texts[q])) << q;
    for (std::size_t k = e.dimension(); k < stride; ++k) {
      EXPECT_EQ(out[q * stride + k], -7.0f) << q;
    }
  }
}

}  // namespace
}  // namespace cortex
