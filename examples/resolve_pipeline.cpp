// End-of-pipeline demo, serving edition: train a matcher, publish it as a
// versioned snapshot, load it back through the ModelRepository, and answer
// match/assess queries through MatchService — the same code path the
// rlbench_serve binary runs, here in-process. A second matcher is then
// published and hot-swapped in without rebuilding the service, and the
// first model's scores are shown to survive the swap bit-for-bit.
//
//   ./build/examples/resolve_pipeline [--dataset=Ds3] [--scale=1.0]
//       [--repo=<dir>]   (default: a fresh directory under /tmp)
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/model_repository.h"
#include "serve/service.h"

using namespace rlbench;

namespace {

// Train `name` and publish it into `repository`; returns the version.
uint64_t TrainAndPublish(serve::ModelRepository& repository,
                         const matchers::MatchingContext& context,
                         const std::string& name) {
  auto trained = matchers::TrainServableMatcher(name, context);
  if (!trained.ok()) {
    std::fprintf(stderr, "training %s failed: %s\n", name.c_str(),
                 trained.status().ToString().c_str());
    std::exit(1);
  }
  serve::SnapshotMetadata metadata;
  metadata.matcher_name = (*trained)->matcher_name();
  metadata.dataset_id = context.task().name();
  metadata.num_attrs = (*trained)->num_attrs();
  auto version = repository.Publish(metadata, **trained);
  if (!version.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 version.status().ToString().c_str());
    std::exit(1);
  }
  return *version;
}

// Load a matcher's CURRENT snapshot and make it the served model.
void Install(serve::MatchService& service,
             const serve::ModelRepository& repository,
             const std::string& name) {
  auto snapshot = repository.LoadCurrent(name);
  if (!snapshot.ok() || !service.InstallSnapshot(*snapshot).ok()) {
    std::fprintf(stderr, "installing %s failed\n", name.c_str());
    std::exit(1);
  }
}

// Score one test pair through the queue (submit + drain).
double ScoreOne(serve::MatchService& service, const data::LabeledPair& pair) {
  double score = 0.0;
  auto id = service.Submit({pair}, [&score](const serve::RequestOutcome& o) {
    score = o.status.ok() ? o.results[0].score : -1.0;
  });
  if (!id.ok()) return -1.0;
  service.Drain();
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string id = flags.GetString("dataset", "Ds3");
  double scale = flags.GetDouble("scale", 1.0);
  std::string root = flags.GetString(
      "repo", "/tmp/rlbench_resolve_repo_" + id);

  const auto* spec = datagen::FindExistingBenchmark(id);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", id.c_str());
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);
  matchers::MatchingContext context(&task);
  std::printf("%s: %zu test pairs (%zu positive)\n\n", id.c_str(),
              task.test().size(), task.TestStats().positives);

  // 1. Train two matcher families and publish each as a versioned
  //    snapshot — the models now outlive this process on disk.
  serve::ModelRepository repository(root);
  uint64_t rf_version = TrainAndPublish(repository, context, "Magellan-RF");
  uint64_t esde_version = TrainAndPublish(repository, context, "SAQ-ESDE");
  std::printf("published Magellan-RF v%llu and SAQ-ESDE v%llu under %s\n",
              static_cast<unsigned long long>(rf_version),
              static_cast<unsigned long long>(esde_version), root.c_str());

  // 2. Serve the random forest: load its snapshot from disk (not the
  //    in-memory model) and answer queries through the admission queue.
  serve::MatchService service(&context);
  Install(service, repository, "Magellan-RF");
  data::LabeledPair probe = task.test().front();
  double rf_score = ScoreOne(service, probe);
  std::printf("\nserving Magellan-RF: pair (%u, %u) -> score %.6f\n",
              probe.left, probe.right, rf_score);

  auto rf_assess = service.AssessDataset();
  if (!rf_assess.ok()) return 1;
  std::printf("assess over %zu pairs in %zu micro-batches: F1 %.4f "
              "(precision %.4f, recall %.4f)\n",
              rf_assess->pairs, rf_assess->batches, rf_assess->f1,
              rf_assess->confusion.Precision(),
              rf_assess->confusion.Recall());

  // 3. Hot-swap to the ESDE rules — no service rebuild, queued work is
  //    never dropped, and the q-gram pools are built for the new family.
  Install(service, repository, "SAQ-ESDE");
  std::printf("\nhot-swapped to SAQ-ESDE: pair (%u, %u) -> score %.6f\n",
              probe.left, probe.right, ScoreOne(service, probe));
  auto esde_assess = service.AssessDataset();
  if (!esde_assess.ok()) return 1;
  std::printf("assess: F1 %.4f\n", esde_assess->f1);

  // 4. Swap back: the snapshot round-trip and the swap are both exact, so
  //    the forest's score is bit-identical to step 2.
  Install(service, repository, "Magellan-RF");
  double rf_again = ScoreOne(service, probe);
  std::printf("\nswapped back to Magellan-RF: score %.6f (%s)\n", rf_again,
              rf_again == rf_score ? "bit-identical" : "MISMATCH");
  std::printf("\nThe same snapshots now serve out-of-process too:\n"
              "  ./build/src/serve/rlbench_serve --dataset=%s --repo=%s "
              "--matcher=Magellan-RF\n",
              id.c_str(), root.c_str());
  return rf_again == rf_score ? 0 : 1;
}
