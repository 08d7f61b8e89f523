// Train and compare individual matchers on one benchmark — the minimal
// "I want to run a matcher on my data" use of the library, including the
// taxonomy dimensions the paper organises DL matchers by.
//
//   ./build/examples/train_matcher [--dataset=Dd4] [--scale=0.25]
//                                  [--epochs=15]
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/dl_sims.h"
#include "matchers/esde.h"
#include "matchers/magellan.h"
#include "matchers/zeroer.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string id = flags.GetString("dataset", "Dd4");
  double scale = flags.GetDouble("scale", 0.25);
  int epochs = static_cast<int>(flags.GetInt("epochs", 15));

  const auto* spec = datagen::FindExistingBenchmark(id);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", id.c_str());
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);
  auto stats = task.TotalStats();
  std::printf("%s (%s): %zu pairs, IR %.2f%%\n\n", spec->id.c_str(),
              spec->origin.c_str(), stats.total,
              100.0 * stats.ImbalanceRatio());
  matchers::MatchingContext context(&task);

  auto run = [&](matchers::Matcher* matcher, const char* taxonomy) {
    Stopwatch watch;
    double f1 = matcher->TestF1(context);
    std::printf("  %-22s F1=%.4f  (%5.1f s)  %s\n", matcher->name().c_str(),
                f1, watch.ElapsedSeconds(), taxonomy);
  };

  std::printf("DL-based matchers (token context / schema / similarity "
              "context):\n");
  {
    matchers::DlMatcher dm(matchers::DlMethod::kDeepMatcher, epochs);
    run(&dm, "static / homogeneous / local");
    matchers::DlMatcher emt(matchers::DlMethod::kEmTransformerR, epochs);
    run(&emt, "dynamic / heterogeneous / local");
    matchers::DlMatcher gnem(matchers::DlMethod::kGnem, epochs);
    run(&gnem, "dynamic / homogeneous / GLOBAL");
    matchers::DlMatcher ditto(matchers::DlMethod::kDitto, epochs);
    run(&ditto, "dynamic / heterogeneous / local + augmentation");
    matchers::DlMatcher hier(matchers::DlMethod::kHierMatcher, epochs);
    run(&hier, "token alignment / heterogeneous / local");
  }

  std::printf("\nClassic ML matchers:\n");
  {
    matchers::MagellanMatcher rf(matchers::MagellanClassifier::kRandomForest);
    run(&rf, "per-attribute similarity features");
    matchers::ZeroErMatcher zeroer;
    run(&zeroer, "unsupervised Gaussian mixture EM");
  }

  std::printf("\nLinear baselines (ESDE):\n");
  {
    matchers::EsdeMatcher sa(matchers::EsdeVariant::kSchemaAgnostic);
    run(&sa, "one token-set similarity + threshold");
    matchers::EsdeMatcher sbq(matchers::EsdeVariant::kSchemaBasedQgram);
    run(&sbq, "best per-attribute q-gram similarity + threshold");
  }

  std::printf("\nTip: rerun with --dataset=Ds7 to see every method saturate "
              "on an easy benchmark.\n");
  return 0;
}
