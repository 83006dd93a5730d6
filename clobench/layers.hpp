#pragma once
// The benchmark's view of the clo layers outside the timed window: the
// independent answer checker (replay + map + SAT CEC on fresh benchmark
// copies) and the fixed-shape layer probes a traced run adds.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/core/evaluator.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/cell_library.hpp"

namespace clobench {

/// Exact work counts of the traced replays (see Checker::qor).
struct ReplayCounts {
  std::array<std::uint64_t, clo::opt::kNumTransforms> calls{};
  std::array<std::uint64_t, clo::opt::kNumTransforms> accepted_moves{};
  std::int64_t ands_removed = 0;
  std::uint64_t techmap_calls = 0;
};

/// Independent QoR and equivalence oracle. Every answer a workload reports
/// is compared with a replay of its sequence on a fresh
/// circuits::make_benchmark copy, mapped the way QorEvaluator maps it
/// (the better of an area- and a delay-oriented cover per metric).
/// References are cached per (circuit, sequence).
class Checker {
 public:
  Checker();

  /// Reference QoR of `seq` on `circuit`. With tracing on and `count`
  /// set, a first-time replay runs pass by pass under "opt.<pass>" and
  /// "techmap.map" spans and adds to counts(); otherwise it runs through
  /// opt::run_sequence. Callers pass `count` only for a fixed,
  /// seed-determined slice of their work, so the counts repeat exactly
  /// whatever the machine's speed.
  clo::core::Qor qor(const std::string& circuit, const clo::opt::Sequence& seq,
                     bool count = false);

  /// SAT-proves `seq` preserves `circuit`'s function (cached per key).
  bool equivalent(const std::string& circuit, const clo::opt::Sequence& seq);

  const ReplayCounts& counts() const { return counts_; }
  std::uint64_t cec_checks() const { return cec_checks_; }

 private:
  const clo::aig::Aig& original(const std::string& circuit);
  clo::aig::Aig replay(const std::string& circuit,
                       const clo::opt::Sequence& seq, bool per_pass);

  clo::techmap::CellLibrary lib_;
  std::map<std::string, clo::aig::Aig> originals_;
  std::map<std::string, clo::core::Qor> qor_;
  std::map<std::string, bool> equivalent_;
  ReplayCounts counts_;
  std::uint64_t cec_checks_ = 0;
};

/// Times UNet forward, backward and one Adam step at the diffusion
/// training shape (B=16, d=8, L=20) under "nn.unet.forward",
/// "nn.unet.backward" and "nn.adam.step" spans.
void probe_nn(std::uint64_t seed);

/// Times DiffusionModel::predict_noise_batch and
/// ContinuousOptimizer::objective_and_grad_batch at R=16 restarts under
/// "models.diffusion.predict_batch" and "models.surrogate.grad_batch"
/// spans, on the given (trained) models.
void probe_inference(clo::models::SurrogateModel& surrogate,
                     clo::models::DiffusionModel& diffusion,
                     const clo::models::TransformEmbedding& embedding,
                     std::uint64_t seed);

/// Times serve::parse_request on the lines, cycling through them until
/// at least 1000 parses ran, under "serve.protocol.parse_request" spans;
/// throws if a line is rejected.
void probe_parse(const std::vector<std::string>& lines);

}  // namespace clobench
