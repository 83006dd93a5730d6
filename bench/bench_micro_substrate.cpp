// Micro-benchmarks of the substrate layers (google-benchmark): AIG
// construction and traversal, cut enumeration, each synthesis pass, the
// technology mapper, and the neural building blocks. These are the pieces
// whose costs determine every number in Figs. 5-6.

#include <benchmark/benchmark.h>

#include "clo/aig/cuts.hpp"
#include "clo/aig/simulate.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/nn/modules.hpp"
#include "clo/opt/passes.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

void BM_AigConstruction(benchmark::State& state) {
  for (auto _ : state) {
    aig::Aig g;
    clo::Rng rng(1);
    std::vector<aig::Lit> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(g.add_pi());
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      const aig::Lit a = pool[rng.next_below(pool.size())];
      const aig::Lit b = pool[rng.next_below(pool.size())];
      pool.push_back(aig::lit_notc(g.and_of(a, b), rng.next_bool()));
    }
    benchmark::DoNotOptimize(g.num_ands());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AigConstruction)->Arg(1000)->Arg(10000);

void BM_Simulation64(benchmark::State& state) {
  const aig::Aig g = circuits::make_benchmark("c6288");
  clo::Rng rng(2);
  std::vector<std::uint64_t> words(g.num_pis());
  for (auto& w : words) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::simulate_words(g, words));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Simulation64);

void BM_CutEnumeration(benchmark::State& state) {
  const aig::Aig g = circuits::make_benchmark("c5315");
  const auto order = g.topo_order();
  for (auto _ : state) {
    aig::CutSet cuts(g, 8);
    for (std::uint32_t n : order) benchmark::DoNotOptimize(&cuts.cuts_of(n));
  }
}
BENCHMARK(BM_CutEnumeration);

void BM_Pass(benchmark::State& state, opt::Transform t, const char* circuit) {
  for (auto _ : state) {
    state.PauseTiming();
    aig::Aig g = circuits::make_benchmark(circuit);
    state.ResumeTiming();
    opt::apply_transform(g, t);
    benchmark::DoNotOptimize(g.num_ands());
  }
}
BENCHMARK_CAPTURE(BM_Pass, rewrite, opt::Transform::kRw, "c2670");
BENCHMARK_CAPTURE(BM_Pass, rewrite_zero, opt::Transform::kRwz, "c2670");
BENCHMARK_CAPTURE(BM_Pass, refactor, opt::Transform::kRf, "c2670");
BENCHMARK_CAPTURE(BM_Pass, refactor_zero, opt::Transform::kRfz, "c2670");
BENCHMARK_CAPTURE(BM_Pass, resub, opt::Transform::kRs, "c2670");
BENCHMARK_CAPTURE(BM_Pass, resub_zero, opt::Transform::kRsz, "c2670");
// router is the circuit the serve benchmark's synthesis misses run on.
BENCHMARK_CAPTURE(BM_Pass, resub_router, opt::Transform::kRs, "router");
BENCHMARK_CAPTURE(BM_Pass, resub_zero_router, opt::Transform::kRsz, "router");
BENCHMARK_CAPTURE(BM_Pass, balance, opt::Transform::kB, "c2670");

// Every dataset label maps its circuit both ways.
void BM_TechMap(benchmark::State& state,
                techmap::MapParams::Objective objective) {
  const aig::Aig g = circuits::make_benchmark("c5315");
  const auto lib = techmap::CellLibrary::asap7();
  for (auto _ : state) {
    benchmark::DoNotOptimize(techmap::tech_map(g, lib, {objective}));
  }
}
BENCHMARK_CAPTURE(BM_TechMap, delay, techmap::MapParams::Objective::kDelay);
BENCHMARK_CAPTURE(BM_TechMap, area, techmap::MapParams::Objective::kArea);

void BM_FullSequenceEval(benchmark::State& state) {
  const auto lib = techmap::CellLibrary::asap7();
  const auto seq = opt::parse_sequence("b;rw;rf;b;rw;rwz;b;rfz;rwz;b");
  for (auto _ : state) {
    state.PauseTiming();
    aig::Aig g = circuits::make_benchmark("c880");
    state.ResumeTiming();
    opt::run_sequence(g, seq);
    benchmark::DoNotOptimize(techmap::tech_map(g, lib));
  }
}
BENCHMARK(BM_FullSequenceEval);

void BM_LstmForward(benchmark::State& state) {
  clo::Rng rng(3);
  nn::Lstm lstm(8, 32, rng);
  std::vector<nn::Tensor> steps;
  for (int t = 0; t < 20; ++t) {
    steps.push_back(nn::Tensor::randn({16, 8}, rng, 1.0f));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(steps));
  }
}
BENCHMARK(BM_LstmForward);

void BM_UNetForward(benchmark::State& state) {
  clo::Rng rng(4);
  models::DiffusionConfig cfg;
  models::DiffusionUNet unet(cfg, rng);
  nn::Tensor x = nn::Tensor::randn({1, cfg.embed_dim, cfg.seq_len}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unet.forward(x, {100}));
  }
}
BENCHMARK(BM_UNetForward);

void BM_DenoiseStepWithGuidance(benchmark::State& state) {
  // One iteration of Eq. 13: denoiser forward + surrogate gradient.
  clo::Rng rng(5);
  models::DiffusionConfig cfg;
  cfg.num_steps = 100;
  models::DiffusionModel model(cfg, rng);
  std::vector<float> x(cfg.seq_len * cfg.embed_dim);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_noise_batch({x}, 50));
  }
}
BENCHMARK(BM_DenoiseStepWithGuidance);

}  // namespace

BENCHMARK_MAIN();
