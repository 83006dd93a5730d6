#include "layers.hpp"

#include <algorithm>

#include "clo/circuits/generators.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/nn/ops.hpp"
#include "clo/nn/optim.hpp"
#include "clo/nn/tensor.hpp"
#include "clo/sat/cec.hpp"
#include "clo/serve/protocol.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/rng.hpp"
#include "trace.hpp"

namespace clobench {

using clo::core::Qor;

Checker::Checker() : lib_(clo::techmap::CellLibrary::asap7()) {}

const clo::aig::Aig& Checker::original(const std::string& circuit) {
  auto it = originals_.find(circuit);
  if (it == originals_.end()) {
    Span span("circuits.make");
    it = originals_.emplace(circuit, clo::circuits::make_benchmark(circuit))
             .first;
  }
  return it->second;
}

clo::aig::Aig Checker::replay(const std::string& circuit,
                              const clo::opt::Sequence& seq, bool per_pass) {
  clo::aig::Aig g = original(circuit);
  if (!per_pass) {
    clo::opt::run_sequence(g, seq);
    return g;
  }
  for (const auto t : seq) {
    const auto p = static_cast<std::size_t>(t);
    clo::opt::PassStats stats;
    {
      Span span(intern(std::string("opt.") + clo::opt::transform_name(t)));
      stats = clo::opt::apply_transform(g, t);
    }
    ++counts_.calls[p];
    counts_.accepted_moves[p] += static_cast<std::uint64_t>(
        std::max(stats.accepted_moves, 0));
    counts_.ands_removed += static_cast<std::int64_t>(stats.nodes_before) -
                            static_cast<std::int64_t>(stats.nodes_after);
  }
  return g;
}

Qor Checker::qor(const std::string& circuit, const clo::opt::Sequence& seq,
                 bool count) {
  const std::string key = circuit + "|" + clo::opt::sequence_to_string(seq);
  if (auto it = qor_.find(key); it != qor_.end()) return it->second;
  const bool traced = count && tracing();
  const clo::aig::Aig g = replay(circuit, seq, traced);
  clo::techmap::MapParams area;
  area.objective = clo::techmap::MapParams::Objective::kArea;
  clo::techmap::MapParams delay;
  delay.objective = clo::techmap::MapParams::Objective::kDelay;
  clo::techmap::MappingResult by_area, by_delay;
  {
    Span span("techmap.map");
    by_area = clo::techmap::tech_map(g, lib_, area);
  }
  {
    Span span("techmap.map");
    by_delay = clo::techmap::tech_map(g, lib_, delay);
  }
  if (traced) counts_.techmap_calls += 2;
  const Qor q{std::min(by_area.area_um2, by_delay.area_um2),
              std::min(by_area.delay_ps, by_delay.delay_ps)};
  qor_.emplace(key, q);
  return q;
}

bool Checker::equivalent(const std::string& circuit,
                         const clo::opt::Sequence& seq) {
  const std::string key = circuit + "|" + clo::opt::sequence_to_string(seq);
  if (auto it = equivalent_.find(key); it != equivalent_.end()) {
    return it->second;
  }
  const clo::aig::Aig g = replay(circuit, seq, false);
  bool ok = false;
  {
    Span span("sat.cec");
    ok = clo::sat::check_equivalence(original(circuit), g).equivalent();
  }
  ++cec_checks_;
  equivalent_.emplace(key, ok);
  return ok;
}

namespace {

constexpr int kTrainBatch = 16;  ///< PipelineConfig::diffusion_batch
constexpr int kSeqLen = 20;      ///< PipelineConfig::seq_len
constexpr int kEmbedDim = 8;     ///< PipelineConfig::embed_dim
constexpr int kRestarts = 16;
constexpr int kProbeRounds = 12;

std::vector<float> gaussian(std::size_t n, clo::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

}  // namespace

void probe_nn(std::uint64_t seed) {
  Operation op("probe.nn");
  clo::Rng rng(seed ^ 0x9e0be5ULL);
  clo::models::DiffusionConfig cfg;
  cfg.seq_len = kSeqLen;
  cfg.embed_dim = kEmbedDim;
  cfg.num_steps = 60;
  clo::models::DiffusionModel model(cfg, rng);
  auto& unet = model.unet();
  clo::nn::Adam adam(unet.parameters(), 1e-3f);
  const std::vector<int> shape{kTrainBatch, kEmbedDim, kSeqLen};
  const std::size_t n = static_cast<std::size_t>(kTrainBatch) * kEmbedDim *
                        kSeqLen;
  for (int round = 0; round < kProbeRounds; ++round) {
    auto x = clo::nn::Tensor::from_data(shape, gaussian(n, rng));
    auto eps = clo::nn::Tensor::from_data(shape, gaussian(n, rng));
    std::vector<int> ts(kTrainBatch);
    for (auto& t : ts) t = rng.next_int(0, cfg.num_steps - 1);
    clo::nn::Tensor pred;
    {
      Span span("nn.unet.forward");
      pred = unet.forward(x, ts);
    }
    const auto loss = clo::nn::mse_loss(pred, eps);
    {
      Span span("nn.unet.backward");
      clo::nn::backward(loss);
    }
    {
      Span span("nn.adam.step");
      adam.step();
    }
  }
}

void probe_inference(clo::models::SurrogateModel& surrogate,
                     clo::models::DiffusionModel& diffusion,
                     const clo::models::TransformEmbedding& embedding,
                     std::uint64_t seed) {
  Operation op("probe.inference");
  clo::Rng rng(seed ^ 0x1fe7e5ULL);
  const std::size_t n = static_cast<std::size_t>(kSeqLen) * kEmbedDim;
  // Read-only use of the models, as during optimize: no parameter grads.
  auto params = surrogate.parameters();
  const auto unet_params = diffusion.unet().parameters();
  params.insert(params.end(), unet_params.begin(), unet_params.end());
  clo::nn::GradFreeze freeze(params);
  clo::core::ContinuousOptimizer optimizer(surrogate, diffusion, embedding);
  const int steps = diffusion.schedule().num_steps();
  for (int round = 0; round < kProbeRounds; ++round) {
    std::vector<std::vector<float>> xs;
    for (int r = 0; r < kRestarts; ++r) xs.push_back(gaussian(n, rng));
    {
      Span span("models.diffusion.predict_batch");
      diffusion.predict_noise_batch(xs, rng.next_int(0, steps - 1));
    }
    std::vector<std::vector<float>> grads;
    {
      Span span("models.surrogate.grad_batch");
      optimizer.objective_and_grad_batch(xs, &grads);
    }
  }
}

void probe_parse(const std::vector<std::string>& lines) {
  constexpr std::size_t kMinParses = 1000;
  Operation op("probe.parse");
  for (std::size_t n = 0; n < kMinParses && !lines.empty();) {
    for (const auto& line : lines) {
      Span span("serve.protocol.parse_request");
      clo::serve::parse_request(line);
      ++n;
    }
  }
}

}  // namespace clobench
