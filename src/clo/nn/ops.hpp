#pragma once
// Differentiable operations over Tensor: exactly the ops the surrogates,
// the diffusion U-Net and the ABC-RL/DRiLLS policies are built from.
// Shapes follow simple conventions:
//  * 2-D [rows, cols] for dense layers,
//  * 3-D [batch, channels, length] for the 1-D U-Net convolutions.
// Broadcasting is deliberately limited to the cases the models need:
// adding a [cols] bias to [rows, cols], and scalar scaling (subtract with
// add(a, scale(b, -1))).
//
// Every op records its autograd node the same way (make_result in
// ops.cpp): a fresh output tensor whose backward closure reads the op's
// result from its own node and accumulates into its parents in a fixed
// order. That order fixes backward()'s topological walk and therefore
// every gradient bit. Ops with two or more parents skip a parent that does
// not want a gradient, so a frozen leaf's grad buffer is never written.

#include "clo/nn/tensor.hpp"

namespace clo::nn {

// ---- Elementwise ----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);        ///< same shape
Tensor add_bias(const Tensor& a, const Tensor& b);   ///< [r,c] + [c]
Tensor mul(const Tensor& a, const Tensor& b);        ///< same shape
Tensor scale(const Tensor& a, float s);

Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor silu(const Tensor& a);

// ---- Linear algebra ---------------------------------------------------------
/// [m,k] x [k,n] -> [m,n]; transpose_b treats b as [n,k].
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_b = false);

// ---- Reductions -------------------------------------------------------------
Tensor sum_all(const Tensor& a);
/// Mean over rows of [r,c] -> [1,c].
Tensor mean_rows(const Tensor& a);
/// Mean squared error between same-shaped tensors -> scalar.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

// ---- Shape ops ---------------------------------------------------------------
Tensor reshape(const Tensor& a, std::vector<int> shape);
/// Concatenate 2-D tensors along the last dim.
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Columns [begin, end) of a 2-D tensor.
Tensor slice_cols(const Tensor& a, int begin, int end);
/// Select rows of a 2-D tensor by index (gather); backward scatter-adds.
/// Indices may repeat.
Tensor gather_rows(const Tensor& a, const std::vector<int>& rows);

// ---- Softmax ----------------------------------------------------------------
/// Softmax over the last dim of a 2-D tensor.
Tensor softmax_rows(const Tensor& a);

// ---- 1-D convolution stack (shapes [batch, channels, length]) -----------------
/// weight [C_out, C_in, K] (K odd, same padding), bias [C_out].
Tensor conv1d(const Tensor& x, const Tensor& weight, const Tensor& bias);
/// Average pooling by 2 (length must be even).
Tensor avg_pool1d(const Tensor& x);
/// Nearest-neighbor upsample by 2.
Tensor upsample1d(const Tensor& x);
/// Concatenate along the channel dim.
Tensor concat_channels(const Tensor& a, const Tensor& b);
/// Add a [batch, channels] (or [channels]) bias across every position.
Tensor add_channel_bias(const Tensor& x, const Tensor& b);

}  // namespace clo::nn
