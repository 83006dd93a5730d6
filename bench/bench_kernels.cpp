// Micro-benchmark for the clo::nn::kernel dispatch layer: times every
// kernel on the shapes the real models hit (LSTM/MLP surrogate matmuls,
// U-Net conv1d im2col dots and per-tap weight-gradient products,
// matmul_ta backward slabs, Adam slabs, embedding nearest-scan sqdist),
// once per dispatch target, and records speedups against the scalar
// target. Kernels run on the calling thread.
//
//   ./bench_kernels [--out BENCH_kernels.json] [--min-ms 50] [--large]
//                   [--full] [--kernel-target T]
//
// Each row is timed as kBatches batches of at least --min-ms each (the
// iteration count is calibrated first and then held fixed), and records
// the median batch's ns per op with the first and third quartiles, so a
// reader — and clo_bench_diff — can tell a shift from the run's own noise.
//
// --full adds the paper-scale batched shapes (R=30 restarts over [R, L*d]
// latents against full-width layers). --kernel-target pins dispatch to
// one named target and restricts timing to it (scalar is always also
// run: it is the parity reference and the speedup baseline).
//
// Before timing anything it verifies the determinism contract the layer
// documents: for every case, every compiled-and-supported target must
// produce BITWISE identical output to the scalar run (see kernel.hpp). A
// mismatch is a hard failure, not a footnote — CI runs this as the
// cross-target parity gate.
//
// Output JSON (schema "clo.bench.kernels.v1"):
//   { schema, simd_compiled, simd_supported, default_target, threads,
//     host_cores, min_ms,
//     results: [ { name, target, threads, flops_per_op, ns, ns_q1, ns_q3,
//                  batches, gflops, speedup, parity } ] }
// One row per (case, target); `ns` is the median batch, and `gflops` and
// `speedup` (scalar ns / ns, 1.0 for the scalar rows themselves) are taken
// from it. `threads` is always 1; it stays in the schema
// so rows key the same way in clo_bench_diff as older baselines.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clo/nn/kernel.hpp"
#include "clo/util/aligned.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/rng.hpp"

namespace {

using clo::util::AlignedFloats;
namespace kernel = clo::nn::kernel;

AlignedFloats random_buf(std::size_t n, clo::Rng& rng) {
  AlignedFloats v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

/// One benchmark case: `reset` restores the output buffer, `run` executes
/// the kernel once, `output` exposes the bytes compared across targets.
struct Case {
  std::string name;
  double flops_per_op = 0.0;
  std::function<void()> reset;
  std::function<void()> run;
  std::function<const AlignedFloats&()> output;
};

/// Timed batches per row: enough for quartiles that mean something.
constexpr int kBatches = 7;

/// Median and quartiles of a row's per-batch ns per op.
struct Timing {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

/// Linear-interpolated quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Timing time_ns_per_op(const Case& c, double min_ms) {
  using clock = std::chrono::steady_clock;
  const auto batch_ms = [&c](std::size_t iters) {
    c.reset();
    const auto begin = clock::now();
    for (std::size_t i = 0; i < iters; ++i) c.run();
    return std::chrono::duration<double, std::milli>(clock::now() - begin)
        .count();
  };
  c.reset();
  c.run();  // warm-up (page in buffers, settle dispatch)
  // Calibrate: grow the batch geometrically (at least 2x) until one batch
  // fills the time budget.
  std::size_t iters = 1;
  for (;;) {
    const double ms = batch_ms(iters);
    if (ms >= min_ms) break;
    const double scale = ms > 0.0 ? (1.5 * min_ms) / ms : 2.0;
    iters = static_cast<std::size_t>(
        static_cast<double>(iters) * (scale < 2.0 ? 2.0 : scale));
  }
  std::vector<double> ns(kBatches);
  for (double& v : ns)
    v = batch_ms(iters) * 1e6 / static_cast<double>(iters);
  std::sort(ns.begin(), ns.end());
  return Timing{quantile(ns, 0.5), quantile(ns, 0.25), quantile(ns, 0.75)};
}

/// Capture the case's output bytes after one run under the current
/// dispatch target.
AlignedFloats run_once(const Case& c) {
  c.reset();
  c.run();
  return c.output();
}

bool same_bytes(const AlignedFloats& a, const AlignedFloats& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clo;
  CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_kernels.json");
  const double min_ms = args.get_double("min-ms", 50.0);
  const bool large = args.has("large");
  const bool full = args.has("full");

  // The targets to time: every compiled-and-supported one, or just the
  // named one (plus scalar, the reference) behind --kernel-target, which
  // also pins dispatch to it.
  std::vector<kernel::Target> targets = {kernel::Target::kScalar};
  const std::string only = args.get("kernel-target", "");
  const bool all_targets = only.empty() || only == "auto";
  if (!only.empty()) {
    kernel::Target parsed;
    if (!kernel::parse_target(only.c_str(), &parsed)) {
      std::fprintf(stderr, "unknown --kernel-target %s\n", only.c_str());
      return 2;
    }
    kernel::set_target(parsed);
  }
  if (kernel::target_supported(kernel::Target::kAvx2) &&
      (all_targets || only == "avx2")) {
    targets.push_back(kernel::Target::kAvx2);
  }
  if (!all_targets && only != "scalar" && targets.size() == 1) {
    std::fprintf(stderr, "note: target %s not supported here; scalar only\n",
                 only.c_str());
  }

  Rng rng(7);
  std::vector<Case> cases;

  // --- matmul, non-transposed: the surrogate MLP/LSTM forward shapes.
  // (m,k,n) = (batch, in, out): LSTM input 16x8x128, LSTM hidden
  // 16x32x128, MLP head 16x32x32, plus square slabs for headline numbers.
  struct MatmulShape {
    const char* name;
    int m, k, n;
    bool transpose_b;
  };
  std::vector<MatmulShape> mm = {
      {"matmul_lstm_input_16x8x128", 16, 8, 128, false},
      {"matmul_lstm_hidden_16x32x128", 16, 32, 128, false},
      {"matmul_mlp_16x32x32", 16, 32, 32, false},
      {"matmul_64x64x64", 64, 64, 64, false},
      // conv1d's im2col forward is exactly a transpose_b matmul
      // (weights [Co, Ci*K] x patches [L, Ci*K]): U-Net shapes at K=3.
      {"conv1d_im2col_co8_ci8_l20", 8, 24, 20, true},
      {"conv1d_im2col_co32_ci32_l10", 32, 96, 10, true},
      {"conv1d_im2col_co64_ci64_l5", 64, 192, 5, true},
      {"matmul_t_64x64x64", 64, 64, 64, true},
  };
  if (large || full) {
    mm.push_back({"matmul_128x128x128", 128, 128, 128, false});
    mm.push_back({"matmul_t_128x128x128", 128, 128, 128, true});
  }
  if (full) {
    // Paper-scale batched shapes: all 30 restarts advance in lockstep, so
    // the denoiser/surrogate see [R, L*d] = [30, 160] activations against
    // full-width layer matrices, plus a square 256 slab.
    mm.push_back({"matmul_batch30_160x256", 30, 160, 256, false});
    mm.push_back({"matmul_batch30_256x256", 30, 256, 256, false});
    mm.push_back({"matmul_t_batch30_160x256", 30, 160, 256, true});
    mm.push_back({"matmul_256x256x256", 256, 256, 256, false});
  }
  for (const auto& s : mm) {
    auto a = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.m) * s.k, rng));
    auto b = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.k) * s.n, rng));
    auto out = std::make_shared<AlignedFloats>(
        static_cast<std::size_t>(s.m) * s.n);
    const int m = s.m, k = s.k, n = s.n;
    const bool tb = s.transpose_b;
    cases.push_back(Case{
        s.name,
        2.0 * m * k * n,
        [out] { std::fill(out->begin(), out->end(), 0.0f); },
        [a, b, out, m, k, n, tb] {
          kernel::matmul(a->data(), b->data(), out->data(), m, k, n, tb);
        },
        [out]() -> const AlignedFloats& { return *out; },
    });
  }

  // --- matmul_ta: the backward-pass dB slabs (out[k,n] += A^T B). Shapes
  // mirror the forward matmuls above: (m,k,n) = (batch, in, out).
  std::vector<MatmulShape> ta = {
      {"matmul_ta_16x32x128", 16, 32, 128, false},
      {"matmul_ta_64x64x64", 64, 64, 64, false},
  };
  if (full) {
    ta.push_back({"matmul_ta_batch30_160x256", 30, 160, 256, false});
    ta.push_back({"matmul_ta_256x256x256", 256, 256, 256, false});
  }
  for (const auto& s : ta) {
    auto a = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.m) * s.k, rng));
    auto b = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.m) * s.n, rng));
    auto out = std::make_shared<AlignedFloats>(
        static_cast<std::size_t>(s.k) * s.n);
    const int m = s.m, k = s.k, n = s.n;
    cases.push_back(Case{
        s.name,
        2.0 * m * k * n,
        [out] { std::fill(out->begin(), out->end(), 0.0f); },
        [a, b, out, m, k, n] {
          kernel::matmul_ta(a->data(), b->data(), out->data(), m, k, n);
        },
        [out]() -> const AlignedFloats& { return *out; },
    });
  }

  // --- matmul_tree: conv1d's weight gradient, one product per (batch
  // element, tap) of gy [Co, L] against the columns of xᵀ [L, Ci]. U-Net
  // shapes at the centre tap (the full row): down2/mid, up1, up2.
  struct TreeShape {
    const char* name;
    int co, ci, l;
  };
  const TreeShape tree[] = {
      {"matmul_tree_co64_ci64_l5", 64, 64, 5},
      {"matmul_tree_co32_ci128_l10", 32, 128, 10},
      {"matmul_tree_co32_ci64_l20", 32, 64, 20},
  };
  for (const auto& s : tree) {
    auto gy = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.co) * s.l, rng));
    auto xt = std::make_shared<AlignedFloats>(
        random_buf(static_cast<std::size_t>(s.l) * s.ci, rng));
    auto out = std::make_shared<AlignedFloats>(
        static_cast<std::size_t>(s.co) * s.ci);
    const int co = s.co, ci = s.ci, l = s.l;
    cases.push_back(Case{
        s.name,
        2.0 * co * ci * l,
        [out] { std::fill(out->begin(), out->end(), 0.0f); },
        [gy, xt, out, co, ci, l] {
          kernel::matmul_tree(gy->data(), l, xt->data(), ci, out->data(), ci,
                              co, l, ci);
        },
        [out]() -> const AlignedFloats& { return *out; },
    });
  }

  // --- Reductions on the latent-vector length the optimizer touches
  // (L=20 x d=8 = 160) and a larger slab.
  for (std::size_t n : {std::size_t{160}, std::size_t{4096}}) {
    auto a = std::make_shared<AlignedFloats>(random_buf(n, rng));
    auto b = std::make_shared<AlignedFloats>(random_buf(n, rng));
    auto out = std::make_shared<AlignedFloats>(1);
    const auto tag = std::to_string(n);
    cases.push_back(Case{
        "dot_n" + tag, 2.0 * static_cast<double>(n),
        [out] { (*out)[0] = 0.0f; },
        [a, b, out, n] { (*out)[0] = kernel::dot(a->data(), b->data(), n); },
        [out]() -> const AlignedFloats& { return *out; },
    });
    cases.push_back(Case{
        "sqdist_n" + tag, 3.0 * static_cast<double>(n),
        [out] { (*out)[0] = 0.0f; },
        [a, b, out, n] {
          (*out)[0] = kernel::sqdist(a->data(), b->data(), n);
        },
        [out]() -> const AlignedFloats& { return *out; },
    });
    cases.push_back(Case{
        "sum_n" + tag, static_cast<double>(n),
        [out] { (*out)[0] = 0.0f; },
        [a, out, n] { (*out)[0] = kernel::sum(a->data(), n); },
        [out]() -> const AlignedFloats& { return *out; },
    });
    cases.push_back(Case{
        "max_n" + tag, static_cast<double>(n),
        [out] { (*out)[0] = 0.0f; },
        [a, out, n] { (*out)[0] = kernel::max_value(a->data(), n); },
        [out]() -> const AlignedFloats& { return *out; },
    });
    // axpy accumulates into its output, so reset restores a pristine copy
    // before every timed batch and parity run.
    auto y0 = std::make_shared<AlignedFloats>(random_buf(n, rng));
    auto y = std::make_shared<AlignedFloats>(*y0);
    cases.push_back(Case{
        "axpy_n" + tag, 2.0 * static_cast<double>(n),
        [y, y0] { *y = *y0; },
        [a, y, n] { kernel::axpy(y->data(), 0.5f, a->data(), n); },
        [y]() -> const AlignedFloats& { return *y; },
    });
  }

  // --- Fused Adam step over a realistic parameter slab (~100k floats:
  // the diffusion U-Net's biggest layers are this order of magnitude).
  {
    const std::size_t n = 100000;
    auto p0 = std::make_shared<AlignedFloats>(random_buf(n, rng));
    auto p = std::make_shared<AlignedFloats>(*p0);
    auto m = std::make_shared<AlignedFloats>(n, 0.0f);
    auto v = std::make_shared<AlignedFloats>(n, 0.0f);
    auto g = std::make_shared<AlignedFloats>(random_buf(n, rng));
    cases.push_back(Case{
        "adam_n100000", 10.0 * static_cast<double>(n),
        [p, p0, m, v] {
          *p = *p0;
          std::fill(m->begin(), m->end(), 0.0f);
          std::fill(v->begin(), v->end(), 0.0f);
        },
        [p, m, v, g, n] {
          kernel::adam_update(p->data(), m->data(), v->data(), g->data(), n,
                              0.9f, 0.999f, 1e-3f, 1.0f, 1.0f, 1e-8f);
        },
        [p]() -> const AlignedFloats& { return *p; },
    });
  }

  // --- Embedding nearest-scan: sqdist over a 7-entry table of dim-8 rows,
  // L=20 positions — the discrepancy/rounding hot loop, as one case.
  {
    constexpr std::size_t dim = 8, table_n = 7, L = 20;
    auto table =
        std::make_shared<AlignedFloats>(random_buf(table_n * dim, rng));
    auto pts = std::make_shared<AlignedFloats>(random_buf(L * dim, rng));
    auto out = std::make_shared<AlignedFloats>(L);
    cases.push_back(Case{
        "nearest_scan_l20_d8_t7",
        3.0 * static_cast<double>(dim) * table_n * L,
        [out] { std::fill(out->begin(), out->end(), 0.0f); },
        [table, pts, out] {
          for (std::size_t l = 0; l < L; ++l) {
            float best = 1e30f;
            for (std::size_t t = 0; t < table_n; ++t) {
              const float d = kernel::sqdist(pts->data() + l * dim,
                                             table->data() + t * dim, dim);
              if (d < best) best = d;
            }
            (*out)[l] = best;
          }
        },
        [out]() -> const AlignedFloats& { return *out; },
    });
  }

  const bool simd_compiled = kernel::target_compiled(kernel::Target::kAvx2);
  const bool simd_supported = kernel::target_supported(kernel::Target::kAvx2);
  std::printf("kernels: simd_compiled=%d simd_supported=%d target=%s\n",
              simd_compiled ? 1 : 0, simd_supported ? 1 : 0,
              kernel::active_target());

  const kernel::Target default_target = kernel::current_target();
  obs::Json results = obs::Json::array();
  bool parity_ok = true;
  for (const auto& c : cases) {
    // Reference bytes: the scalar run — the portable ground truth every
    // target must reproduce bit-for-bit.
    kernel::set_target(kernel::Target::kScalar);
    const AlignedFloats reference = run_once(c);

    // Parity gate: every target against the reference.
    std::vector<std::string> parity(targets.size(), "bitwise");
    for (std::size_t ti = 0; ti < targets.size(); ++ti) {
      kernel::set_target(targets[ti]);
      if (!same_bytes(reference, run_once(c))) {
        parity[ti] = "MISMATCH";
        parity_ok = false;
      }
    }

    // Timing: each target; scalar is the speedup baseline.
    double scalar_ns = 0.0;
    for (std::size_t ti = 0; ti < targets.size(); ++ti) {
      kernel::set_target(targets[ti]);
      const Timing timing = time_ns_per_op(c, min_ms);
      const double ns = timing.median;
      if (targets[ti] == kernel::Target::kScalar) scalar_ns = ns;

      obs::Json row = obs::Json::object();
      row["name"] = obs::Json(c.name);
      row["target"] =
          obs::Json(std::string(kernel::target_name(targets[ti])));
      row["threads"] = obs::Json(1.0);
      row["flops_per_op"] = obs::Json(c.flops_per_op);
      row["ns"] = obs::Json(ns);
      row["ns_q1"] = obs::Json(timing.q1);
      row["ns_q3"] = obs::Json(timing.q3);
      row["batches"] = obs::Json(static_cast<double>(kBatches));
      row["gflops"] = obs::Json(c.flops_per_op / ns);
      row["speedup"] = obs::Json(scalar_ns > 0.0 ? scalar_ns / ns : 1.0);
      row["parity"] = obs::Json(parity[ti]);
      results.push_back(std::move(row));

      std::printf("%-32s %-7s %12.1f ns [%.1f, %.1f]  x%5.2f  %s\n",
                  c.name.c_str(), kernel::target_name(targets[ti]), ns,
                  timing.q1, timing.q3,
                  scalar_ns > 0.0 ? scalar_ns / ns : 1.0,
                  parity[ti].c_str());
    }
  }
  // Leave the dispatch switch where the command line asked for it.
  kernel::set_target(default_target);

  obs::Json doc = obs::Json::object();
  doc["schema"] = obs::Json(std::string("clo.bench.kernels.v1"));
  doc["simd_compiled"] = obs::Json(simd_compiled);
  doc["simd_supported"] = obs::Json(simd_supported);
  doc["default_target"] = obs::Json(std::string(kernel::active_target()));
  doc["threads"] = obs::Json(1.0);
  doc["host_cores"] = obs::Json(
      static_cast<double>(std::thread::hardware_concurrency()));
  doc["min_ms"] = obs::Json(min_ms);
  doc["results"] = std::move(results);
  if (!obs::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!parity_ok) {
    std::fprintf(stderr,
                 "FATAL: cross-target outputs differ bitwise — "
                 "the kernel determinism contract is broken\n");
    return 1;
  }
  return 0;
}
