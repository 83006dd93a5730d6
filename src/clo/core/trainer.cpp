#include "clo/core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "clo/nn/optim.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/stats.hpp"
#include "clo/util/timer.hpp"

namespace clo::core {

using nn::Tensor;

TrainReport train_surrogate(models::SurrogateModel& model,
                            const models::TransformEmbedding& embedding,
                            const Dataset& dataset, const TrainConfig& config,
                            clo::Rng& rng, const util::CancelToken* cancel) {
  Stopwatch watch;
  watch.start();
  const int n = static_cast<int>(dataset.size());
  const int L = model.config().seq_len;
  const int d = model.config().embed_dim;
  std::vector<int> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  rng.shuffle(indices);
  const int holdout = std::min(
      n / 2, static_cast<int>(n * config.holdout_fraction));
  std::vector<int> test(indices.begin(), indices.begin() + holdout);
  std::vector<int> train(indices.begin() + holdout, indices.end());

  auto make_batch = [&](const std::vector<int>& ids, std::size_t begin,
                        std::size_t count, Tensor& x, Tensor& ya, Tensor& yd) {
    const int B = static_cast<int>(count);
    x = Tensor::zeros({B, L * d});
    ya = Tensor::zeros({B, 1});
    yd = Tensor::zeros({B, 1});
    for (int b = 0; b < B; ++b) {
      const int i = ids[begin + b];
      const auto emb = embedding.embed(dataset.sequences[i]);
      std::copy(emb.begin(), emb.end(), x.data().begin() + b * L * d);
      ya.data()[b] = dataset.norm_area(i);
      yd.data()[b] = dataset.norm_delay(i);
    }
  };

  // Divergence guard: keep a copy of the last weights known to produce a
  // finite loss. A NaN/Inf batch rolls back to it, halves the LR (fresh
  // optimizer moments), and training continues — so one poisoned batch or
  // an LR overshoot cannot waste the whole one-time pretraining run.
  std::vector<Tensor> live_params = model.parameters();
  std::vector<nn::FloatBuf> last_good;
  last_good.reserve(live_params.size());
  for (const auto& p : live_params) last_good.push_back(p.impl()->data);
  float lr = config.lr;
  auto opt = std::make_unique<nn::Adam>(model.parameters(), lr);
  TrainReport report;
  report.epoch_loss.reserve(config.epochs);
  obs::Progress progress("surrogate_train",
                         static_cast<std::uint64_t>(
                             config.epochs > 0 ? config.epochs : 0));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    CLO_TRACE_SPAN("trainer.epoch");
    rng.shuffle(train);
    double epoch_loss = 0.0;
    int batches = 0;
    for (std::size_t begin = 0; begin < train.size();
         begin += config.batch_size) {
      if (cancel != nullptr) cancel->check();
      CLO_FAULT_POINT("surrogate.train_step");
      const std::size_t count =
          std::min<std::size_t>(config.batch_size, train.size() - begin);
      Tensor x, ya, yd;
      make_batch(train, begin, count, x, ya, yd);
      auto out = model.forward(x);
      Tensor loss =
          nn::add(nn::mse_loss(out.area, ya), nn::mse_loss(out.delay, yd));
      nn::backward(loss);
      double batch_loss = loss.item();
      if (CLO_FAULT_FIRED("surrogate.loss_nan")) {
        batch_loss = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(batch_loss)) {
        if (++report.lr_backoffs > nn::kMaxLrBackoffs) {
          throw std::runtime_error(
              "train_surrogate: diverged (non-finite loss after " +
              std::to_string(nn::kMaxLrBackoffs) + " LR backoffs)");
        }
        for (std::size_t p = 0; p < live_params.size(); ++p) {
          live_params[p].impl()->data = last_good[p];
        }
        lr *= 0.5f;
        opt = std::make_unique<nn::Adam>(model.parameters(), lr);
        opt->zero_grad();  // drop the non-finite gradients just accumulated
        CLO_OBS_COUNT("trainer.lr_backoffs", 1);
        continue;
      }
      opt->step();
      epoch_loss += batch_loss;
      ++batches;
    }
    for (std::size_t p = 0; p < live_params.size(); ++p) {
      last_good[p] = live_params[p].impl()->data;
    }
    report.train_mse = epoch_loss / std::max(1, batches) / 2.0;
    report.epoch_loss.push_back(report.train_mse);
    progress.tick();
    CLO_OBS_COUNT("trainer.epochs", 1);
    CLO_OBS_OBSERVE("trainer.epoch_loss", report.train_mse);
  }

  // Holdout fidelity.
  if (!test.empty()) {
    Tensor x, ya, yd;
    make_batch(test, 0, test.size(), x, ya, yd);
    auto out = model.forward(x);
    std::vector<double> pa, pd, ta, td;
    for (std::size_t i = 0; i < test.size(); ++i) {
      pa.push_back(out.area.data()[i]);
      pd.push_back(out.delay.data()[i]);
      ta.push_back(ya.data()[i]);
      td.push_back(yd.data()[i]);
    }
    double mse = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      mse += (pa[i] - ta[i]) * (pa[i] - ta[i]) +
             (pd[i] - td[i]) * (pd[i] - td[i]);
    }
    report.holdout_mse = mse / (2.0 * pa.size());
    report.spearman_area = clo::spearman(pa, ta);
    report.spearman_delay = clo::spearman(pd, td);
    CLO_OBS_GAUGE("trainer.holdout_mse", report.holdout_mse);
    CLO_OBS_GAUGE("trainer.spearman_area", report.spearman_area);
    CLO_OBS_GAUGE("trainer.spearman_delay", report.spearman_delay);
  }
  watch.stop();
  report.seconds = watch.seconds();
  return report;
}

}  // namespace clo::core
