#include "clo/nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "clo/nn/kernel.hpp"

namespace clo::nn {
namespace {

/// Whether backward should write into this node's grad buffer: tracked
/// interior nodes and requires_grad leaves only. Frozen leaves (see
/// GradFreeze) and plain constants are skipped — they would never be read,
/// and skipping them is what makes concurrent backward passes over shared
/// (frozen) weights race-free.
bool wants_grad(const TensorImpl& p) {
  return p.requires_grad || p.backward_fn != nullptr;
}

/// The one place an op records its autograd node: a zero-filled output of
/// `shape` that, when recording is on and some parent wants a gradient,
/// keeps `parents` and `backward_fn`. The closure receives the output node
/// itself, so it reads the op's result from `self.data` and the upstream
/// gradient from `self.grad`.
Tensor make_result(std::vector<int> shape,
                   std::vector<std::shared_ptr<TensorImpl>> parents,
                   std::function<void(TensorImpl&)> backward_fn) {
  Tensor out = Tensor::zeros(std::move(shape));
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || wants_grad(*p);
  any_grad = any_grad && grad_enabled();
  out.impl()->requires_grad = any_grad;
  if (any_grad) {
    out.impl()->parents = std::move(parents);
    out.impl()->backward_fn = std::move(backward_fn);
  }
  return out;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}

/// dst[c, r] = src[r, c] for a row-major [rows, cols] src.
void transpose(const float* src, int rows, int cols, float* dst) {
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      dst[static_cast<std::size_t>(c) * rows + r] =
          src[static_cast<std::size_t>(r) * cols + c];
}

void accumulate(const std::shared_ptr<TensorImpl>& p,
                const FloatBuf& grad_piece) {
  if (!wants_grad(*p)) return;
  p->ensure_grad();
  kernel::acc(p->grad.data(), grad_piece.data(), grad_piece.size());
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(a.shape(), {pa, pb}, [pa, pb](TensorImpl& self) {
    accumulate(pa, self.grad);
    accumulate(pb, self.grad);
  });
  kernel::add(out.data().data(), pa->data.data(), pb->data.data(),
              out.numel());
  return out;
}

Tensor add_bias(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 1 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("add_bias: need [r,c] + [c]");
  }
  auto pa = a.impl();
  auto pb = b.impl();
  const int rows = a.dim(0), cols = a.dim(1);
  Tensor out = make_result(a.shape(), {pa, pb},
                           [pa, pb, rows, cols](TensorImpl& self) {
    accumulate(pa, self.grad);
    if (!wants_grad(*pb)) return;
    pb->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      kernel::acc(pb->grad.data(),
                  self.grad.data() + static_cast<std::size_t>(r) * cols, cols);
    }
  });
  for (int r = 0; r < rows; ++r) {
    kernel::add(out.data().data() + static_cast<std::size_t>(r) * cols,
                pa->data.data() + static_cast<std::size_t>(r) * cols,
                pb->data.data(), cols);
  }
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(a.shape(), {pa, pb}, [pa, pb](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      if (ga) pa->grad[i] += self.grad[i] * pb->data[i];
      if (gb) pb->grad[i] += self.grad[i] * pa->data[i];
    }
  });
  kernel::mul(out.data().data(), pa->data.data(), pb->data.data(),
              out.numel());
  return out;
}

Tensor scale(const Tensor& a, float s) {
  auto pa = a.impl();
  Tensor out = make_result(a.shape(), {pa}, [pa, s](TensorImpl& self) {
    if (!wants_grad(*pa)) return;
    pa->ensure_grad();
    kernel::axpy(pa->grad.data(), s, self.grad.data(), self.grad.size());
  });
  kernel::scale(out.data().data(), pa->data.data(), s, out.numel());
  return out;
}

namespace {

/// Elementwise y = fwd(x) whose derivative is a function of y alone.
template <typename Fwd, typename Dfn>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfn dydx_from_y) {
  auto pa = a.impl();
  Tensor out =
      make_result(a.shape(), {pa}, [pa, dydx_from_y](TensorImpl& self) {
        pa->ensure_grad();
        for (std::size_t i = 0; i < self.grad.size(); ++i) {
          pa->grad[i] += self.grad[i] * dydx_from_y(self.data[i]);
        }
      });
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = fwd(pa->data[i]);
  }
  return out;
}

}  // namespace

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float y) { return y > 0 ? 1.0f : 0.0f; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float y) { return 1.0f - y * y; });
}

Tensor silu(const Tensor& a) {
  // silu(x) = x * sigmoid(x); the derivative needs x, read from the input.
  auto pa = a.impl();
  Tensor out = make_result(a.shape(), {pa}, [pa](TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      const float x = pa->data[i];
      const float s = 1.0f / (1.0f + std::exp(-x));
      pa->grad[i] += self.grad[i] * (s + x * s * (1.0f - s));
    }
  });
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const float x = pa->data[i];
    out.data()[i] = x / (1.0f + std::exp(-x));
  }
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: need 2-D tensors");
  }
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = transpose_b ? b.dim(0) : b.dim(1);
  const int bk = transpose_b ? b.dim(1) : b.dim(0);
  if (k != bk) {
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  }
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(
      {m, n}, {pa, pb}, [pa, pb, m, k, n, transpose_b](TensorImpl& self) {
        const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
        if (ga) pa->ensure_grad();
        if (gb) pb->ensure_grad();
        // No zero-skip fast path anywhere below: 0 * Inf and 0 * NaN must
        // produce NaN so a poisoned parameter always surfaces as a
        // non-finite loss/grad (the PR 4 rollback guards depend on it).
        if (ga) {
          // dA = dY · Bᵀ (or dY · B when b was transposed).
          kernel::matmul(self.grad.data(), pb->data.data(), pa->grad.data(),
                         m, n, k, !transpose_b);
        }
        if (gb) {
          // Both transpose cases are one Aᵀ·B product accumulating over
          // the shared row index i ascending — exactly the axpy loop
          // order this used before matmul_ta existed, now vectorized.
          if (transpose_b) {
            // dB[j,:] += gy[i,j] * A[i,:]  ⇒  dB = dYᵀ · A
            kernel::matmul_ta(self.grad.data(), pa->data.data(),
                              pb->grad.data(), m, n, k);
          } else {
            // dB[l,:] += A[i,l] * dY[i,:]  ⇒  dB = Aᵀ · dY
            kernel::matmul_ta(pa->data.data(), self.grad.data(),
                              pb->grad.data(), m, k, n);
          }
        }
      });
  kernel::matmul(pa->data.data(), pb->data.data(), out.data().data(), m, k, n,
                 transpose_b);
  return out;
}

Tensor sum_all(const Tensor& a) {
  auto pa = a.impl();
  Tensor out = make_result({1}, {pa}, [pa](TensorImpl& self) {
    pa->ensure_grad();
    for (auto& g : pa->grad) g += self.grad[0];
  });
  out.data()[0] = kernel::sum(pa->data.data(), pa->data.size());
  return out;
}

Tensor mean_rows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("mean_rows: need 2-D");
  const int rows = a.dim(0), cols = a.dim(1);
  auto pa = a.impl();
  Tensor out = make_result({1, cols}, {pa}, [pa, rows, cols](TensorImpl& self) {
    pa->ensure_grad();
    const float inv = 1.0f / static_cast<float>(rows);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        pa->grad[r * cols + c] += self.grad[c] * inv;
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) out.data()[c] += pa->data[r * cols + c];
  }
  for (int c = 0; c < cols; ++c) out.data()[c] /= static_cast<float>(rows);
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mse_loss");
  auto pa = pred.impl();
  auto pb = target.impl();
  const float inv = 1.0f / static_cast<float>(pred.numel());
  Tensor out = make_result({1}, {pa, pb}, [pa, pb, inv](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    const float g = self.grad[0];
    for (std::size_t i = 0; i < pa->data.size(); ++i) {
      const float d = 2.0f * (pa->data[i] - pb->data[i]) * inv * g;
      if (ga) pa->grad[i] += d;
      if (gb) pb->grad[i] -= d;
    }
  });
  out.data()[0] =
      kernel::sqdist(pa->data.data(), pb->data.data(), pred.numel()) * inv;
  return out;
}

Tensor reshape(const Tensor& a, std::vector<int> shape) {
  std::size_t n = 1;
  for (int d : shape) n *= static_cast<std::size_t>(d);
  if (n != a.numel()) throw std::invalid_argument("reshape: numel mismatch");
  auto pa = a.impl();
  Tensor out = make_result(std::move(shape), {pa}, [pa](TensorImpl& self) {
    accumulate(pa, self.grad);
  });
  out.data() = pa->data;
  return out;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("concat_cols: need [r,ca],[r,cb]");
  }
  const int rows = a.dim(0), ca = a.dim(1), cb = b.dim(1);
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result({rows, ca + cb}, {pa, pb},
                           [pa, pb, rows, ca, cb](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      if (ga) {
        for (int c = 0; c < ca; ++c) {
          pa->grad[r * ca + c] += self.grad[r * (ca + cb) + c];
        }
      }
      if (gb) {
        for (int c = 0; c < cb; ++c) {
          pb->grad[r * cb + c] += self.grad[r * (ca + cb) + ca + c];
        }
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < ca; ++c) {
      out.data()[r * (ca + cb) + c] = pa->data[r * ca + c];
    }
    for (int c = 0; c < cb; ++c) {
      out.data()[r * (ca + cb) + ca + c] = pb->data[r * cb + c];
    }
  }
  return out;
}

Tensor slice_cols(const Tensor& a, int begin, int end) {
  if (a.ndim() != 2 || begin < 0 || end > a.dim(1) || begin >= end) {
    throw std::invalid_argument("slice_cols: bad range");
  }
  const int rows = a.dim(0), cols = a.dim(1), w = end - begin;
  auto pa = a.impl();
  Tensor out = make_result({rows, w}, {pa},
                           [pa, rows, cols, begin, w](TensorImpl& self) {
    pa->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < w; ++c) {
        pa->grad[r * cols + begin + c] += self.grad[r * w + c];
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < w; ++c) {
      out.data()[r * w + c] = pa->data[r * cols + begin + c];
    }
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<int>& rows) {
  if (a.ndim() != 2) throw std::invalid_argument("gather_rows: need 2-D");
  const int cols = a.dim(1);
  auto pa = a.impl();
  auto idx = rows;  // captured copy
  Tensor out = make_result({static_cast<int>(rows.size()), cols}, {pa},
                           [pa, idx, cols](TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t r = 0; r < idx.size(); ++r) {
      for (int c = 0; c < cols; ++c) {
        pa->grad[static_cast<std::size_t>(idx[r]) * cols + c] +=
            self.grad[r * cols + c];
      }
    }
  });
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < cols; ++c) {
      out.data()[r * cols + c] =
          pa->data[static_cast<std::size_t>(rows[r]) * cols + c];
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const int rows = a.dim(0), cols = a.dim(1);
  auto pa = a.impl();
  Tensor out = make_result(a.shape(), {pa}, [pa, rows, cols](TensorImpl& self) {
    pa->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      const float* y = self.data.data() + static_cast<std::size_t>(r) * cols;
      const float* gy = self.grad.data() + static_cast<std::size_t>(r) * cols;
      const float dot = kernel::dot(gy, y, cols);
      for (int c = 0; c < cols; ++c) {
        pa->grad[r * cols + c] += y[c] * (gy[c] - dot);
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    float* orow = out.data().data() + static_cast<std::size_t>(r) * cols;
    const float* arow = pa->data.data() + static_cast<std::size_t>(r) * cols;
    const float mx = kernel::max_value(arow, cols);
    // exp stays scalar on both dispatch targets (libm transcendentals have
    // no vector twin with identical rounding); max and the normalize go
    // through the kernels.
    float z = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float e = std::exp(arow[c] - mx);
      orow[c] = e;
      z += e;
    }
    kernel::div_inplace(orow, z, cols);
  }
  return out;
}

// ---- conv1d stack -----------------------------------------------------------

Tensor conv1d(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  if (x.ndim() != 3 || weight.ndim() != 3 || bias.ndim() != 1) {
    throw std::invalid_argument("conv1d: need [B,C,L], [Co,Ci,K], [Co]");
  }
  const int B = x.dim(0), Ci = x.dim(1), L = x.dim(2);
  const int Co = weight.dim(0), K = weight.dim(2);
  if (weight.dim(1) != Ci || bias.dim(0) != Co || K % 2 == 0) {
    throw std::invalid_argument("conv1d: shape mismatch");
  }
  const int pad = K / 2;
  auto px = x.impl();
  auto pw = weight.impl();
  auto pb = bias.impl();
  Tensor out = make_result(
      {B, Co, L}, {px, pw, pb},
      [px, pw, pb, B, Ci, L, Co, K, pad](TensorImpl& self) {
        const bool gx = wants_grad(*px);
        const bool gw = wants_grad(*pw);
        const bool gb = wants_grad(*pb);
        if (gx) px->ensure_grad();
        if (gw) pw->ensure_grad();
        if (gb) pb->ensure_grad();
        if (!gx && !gw && !gb) return;
        // A few dense products per batch element that make, element for
        // element, the same additions in the same order as the per-tap
        // dot/axpy loop this replaced (pinned bit for bit against it by
        // Autograd.Conv1dBackwardMatchesPerTapLoopBitwise):
        //  - db[co] += sum(gy[b,co,:]) for b ascending.
        //  - dW[co,ci,k] gets one dot() per b over tap k's valid slice
        //    [lo, hi): one matmul_tree per (b, k) of gy's rows against the
        //    columns of xᵀ, into a [K][Co][Ci] copy of w.grad that is
        //    gathered before and scattered after (b ascending, as before).
        //  - dxᵀ[b] += Gᵀ · W', where W'[(co,k), ci] = w[co,ci,k] and
        //    Gᵀ[p, (co,k)] = gy[b, co, p - (k - pad)], zero outside the
        //    row: each dx element is a chain over (co,k) ascending, the old
        //    axpy order. The zero rows add w·0 = ±0, which leaves every
        //    finite sum unchanged because a grad buffer starts at +0 and
        //    only ever accumulates, so it never holds −0. With an Inf or
        //    NaN weight, w·0 is NaN and can reach a dx entry that the old
        //    loop left finite; the loss is non-finite then anyway, and the
        //    diffusion trainer's rollback discards those gradients.
        // Scratch is local to the call: concurrent backward passes over
        // GradFreeze-shared weights share no mutable state.
        const std::size_t CiL = static_cast<std::size_t>(Ci) * L;
        const std::size_t CoL = static_cast<std::size_t>(Co) * L;
        const int CoK = Co * K;
        if (gb) {
          for (int b = 0; b < B; ++b)
            for (int co = 0; co < Co; ++co)
              pb->grad[co] += kernel::sum(
                  self.grad.data() + b * CoL + static_cast<std::size_t>(co) * L,
                  L);
        }
        if (gw) {
          const std::size_t CoCi = static_cast<std::size_t>(Co) * Ci;
          std::vector<float> dw(CoCi * K);
          std::vector<float> xt(CiL);
          transpose(pw->grad.data(), Co * Ci, K, dw.data());
          for (int b = 0; b < B; ++b) {
            transpose(px->data.data() + b * CiL, Ci, L, xt.data());
            const float* gy = self.grad.data() + b * CoL;
            for (int k = 0; k < K; ++k) {
              const int shift = k - pad;
              const int lo = shift < 0 ? -shift : 0;
              const int hi = shift > 0 ? L - shift : L;
              if (hi < lo) continue;  // the tap misses the row: K > 2L + 1
              kernel::matmul_tree(
                  gy + lo, L,
                  xt.data() + static_cast<std::size_t>(lo + shift) * Ci, Ci,
                  dw.data() + k * CoCi, Ci, Co, hi - lo, Ci);
            }
          }
          transpose(dw.data(), K, Co * Ci, pw->grad.data());
        }
        if (gx) {
          std::vector<float> wt(static_cast<std::size_t>(CoK) * Ci);
          std::vector<float> gt(static_cast<std::size_t>(L) * CoK);
          std::vector<float> dxt(CiL);
          for (int co = 0; co < Co; ++co)
            transpose(pw->data.data() + static_cast<std::size_t>(co) * Ci * K,
                      Ci, K, wt.data() + static_cast<std::size_t>(co) * K * Ci);
          for (int b = 0; b < B; ++b) {
            const float* gy = self.grad.data() + b * CoL;
            for (int p = 0; p < L; ++p)
              for (int co = 0; co < Co; ++co)
                for (int k = 0; k < K; ++k) {
                  const int q = p - (k - pad);
                  gt[static_cast<std::size_t>(p) * CoK + co * K + k] =
                      q < 0 || q >= L
                          ? 0.0f
                          : gy[static_cast<std::size_t>(co) * L + q];
                }
            float* dxb = px->grad.data() + b * CiL;
            transpose(dxb, Ci, L, dxt.data());
            kernel::matmul(gt.data(), wt.data(), dxt.data(), L, CoK, Ci,
                           /*transpose_b=*/false);
            transpose(dxt.data(), L, Ci, dxb);
          }
        }
      });
  // im2col + one transpose_b matmul per batch element: gathering each
  // output position's padded patch once turns every output element into a
  // dense dot over Ci*K contiguous floats, shared by all Co filters.
  // kernel::matmul's transposed form computes exactly the 8-lane-tree dot
  // this op used since PR 3 (bias first, then one full tree-reduced dot
  // added to it), so values are unchanged — and identical on every
  // dispatch target.
  const int CK = Ci * K;
  std::vector<float> patch(static_cast<std::size_t>(L) * CK);
  for (int b = 0; b < B; ++b) {
    for (int l = 0; l < L; ++l) {
      float* row = patch.data() + static_cast<std::size_t>(l) * CK;
      for (int ci = 0; ci < Ci; ++ci) {
        const float* xi =
            px->data.data() + (static_cast<std::size_t>(b) * Ci + ci) * L;
        for (int k = 0; k < K; ++k) {
          const int li = l + k - pad;
          row[ci * K + k] = (li < 0 || li >= L) ? 0.0f : xi[li];
        }
      }
    }
    float* ob = out.data().data() + static_cast<std::size_t>(b) * Co * L;
    for (int co = 0; co < Co; ++co) {
      std::fill(ob + static_cast<std::size_t>(co) * L,
                ob + static_cast<std::size_t>(co + 1) * L, pb->data[co]);
    }
    kernel::matmul(pw->data.data(), patch.data(), ob, Co, CK, L,
                   /*transpose_b=*/true);
  }
  return out;
}

Tensor avg_pool1d(const Tensor& x) {
  if (x.ndim() != 3 || x.dim(2) % 2 != 0) {
    throw std::invalid_argument("avg_pool1d: need [B,C,even L]");
  }
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2), Lo = L / 2;
  auto px = x.impl();
  Tensor out = make_result({B, C, Lo}, {px}, [px, B, C, L, Lo](TensorImpl& self) {
    px->ensure_grad();
    for (int b = 0; b < B; ++b) {
      for (int c = 0; c < C; ++c) {
        for (int l = 0; l < Lo; ++l) {
          const float g = 0.5f * self.grad[(b * C + c) * Lo + l];
          px->grad[(b * C + c) * L + 2 * l] += g;
          px->grad[(b * C + c) * L + 2 * l + 1] += g;
        }
      }
    }
  });
  for (int b = 0; b < B; ++b) {
    for (int c = 0; c < C; ++c) {
      for (int l = 0; l < Lo; ++l) {
        out.data()[(b * C + c) * Lo + l] =
            0.5f * (px->data[(b * C + c) * L + 2 * l] +
                    px->data[(b * C + c) * L + 2 * l + 1]);
      }
    }
  }
  return out;
}

Tensor upsample1d(const Tensor& x) {
  if (x.ndim() != 3) throw std::invalid_argument("upsample1d: need [B,C,L]");
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2), Lo = L * 2;
  auto px = x.impl();
  Tensor out = make_result({B, C, Lo}, {px}, [px, B, C, L, Lo](TensorImpl& self) {
    px->ensure_grad();
    for (int b = 0; b < B; ++b) {
      for (int c = 0; c < C; ++c) {
        for (int l = 0; l < L; ++l) {
          px->grad[(b * C + c) * L + l] +=
              self.grad[(b * C + c) * Lo + 2 * l] +
              self.grad[(b * C + c) * Lo + 2 * l + 1];
        }
      }
    }
  });
  for (int b = 0; b < B; ++b) {
    for (int c = 0; c < C; ++c) {
      for (int l = 0; l < L; ++l) {
        const float v = px->data[(b * C + c) * L + l];
        out.data()[(b * C + c) * Lo + 2 * l] = v;
        out.data()[(b * C + c) * Lo + 2 * l + 1] = v;
      }
    }
  }
  return out;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 3 || b.ndim() != 3 || a.dim(0) != b.dim(0) ||
      a.dim(2) != b.dim(2)) {
    throw std::invalid_argument("concat_channels: shape mismatch");
  }
  const int B = a.dim(0), Ca = a.dim(1), Cb = b.dim(1), L = a.dim(2);
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result({B, Ca + Cb, L}, {pa, pb},
                           [pa, pb, B, Ca, Cb, L](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    for (int bt = 0; bt < B; ++bt) {
      if (ga) {
        for (int c = 0; c < Ca; ++c) {
          for (int l = 0; l < L; ++l) {
            pa->grad[(bt * Ca + c) * L + l] +=
                self.grad[(bt * (Ca + Cb) + c) * L + l];
          }
        }
      }
      if (gb) {
        for (int c = 0; c < Cb; ++c) {
          for (int l = 0; l < L; ++l) {
            pb->grad[(bt * Cb + c) * L + l] +=
                self.grad[(bt * (Ca + Cb) + Ca + c) * L + l];
          }
        }
      }
    }
  });
  for (int bt = 0; bt < B; ++bt) {
    for (int c = 0; c < Ca; ++c) {
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * (Ca + Cb) + c) * L + l] = pa->data[(bt * Ca + c) * L + l];
      }
    }
    for (int c = 0; c < Cb; ++c) {
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * (Ca + Cb) + Ca + c) * L + l] =
            pb->data[(bt * Cb + c) * L + l];
      }
    }
  }
  return out;
}

Tensor add_channel_bias(const Tensor& x, const Tensor& b) {
  if (x.ndim() != 3) throw std::invalid_argument("add_channel_bias: [B,C,L]");
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2);
  const bool batched = b.ndim() == 2;
  if ((batched && (b.dim(0) != B || b.dim(1) != C)) ||
      (!batched && b.dim(0) != C)) {
    throw std::invalid_argument("add_channel_bias: bias shape");
  }
  auto px = x.impl();
  auto pb = b.impl();
  Tensor out = make_result({B, C, L}, {px, pb},
                           [px, pb, B, C, L, batched](TensorImpl& self) {
    const bool gx = wants_grad(*px), gb = wants_grad(*pb);
    if (gx) px->ensure_grad();
    if (gb) pb->ensure_grad();
    for (int bt = 0; bt < B; ++bt) {
      for (int c = 0; c < C; ++c) {
        float s = 0.0f;
        for (int l = 0; l < L; ++l) {
          const float g = self.grad[(bt * C + c) * L + l];
          if (gx) px->grad[(bt * C + c) * L + l] += g;
          s += g;
        }
        if (gb) pb->grad[batched ? bt * C + c : c] += s;
      }
    }
  });
  for (int bt = 0; bt < B; ++bt) {
    for (int c = 0; c < C; ++c) {
      const float bias = pb->data[batched ? bt * C + c : c];
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * C + c) * L + l] = px->data[(bt * C + c) * L + l] + bias;
      }
    }
  }
  return out;
}

}  // namespace clo::nn
