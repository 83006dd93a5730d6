#pragma once
// clo::nn::kernel — runtime-dispatched compute kernels for the nn hot path.
//
// Two implementations sit behind every entry point: a portable blocked
// scalar path (always built) and an AVX2/FMA-gated vector path (built when
// the compiler supports -mavx2, selected at runtime only when cpuid
// reports AVX2+FMA).
// Dispatch is a single relaxed atomic load per call; `--kernel-target`
// (tool flag) and the `simd` shell command force a lower target at
// runtime — forcing a target the host cannot run clamps down to the best
// supported one.
//
// Determinism contract: the floating-point result of every kernel is part
// of its definition, not an implementation detail. Reductions use eight
// interleaved partial sums — lane j accumulates elements j, j+8, j+16, ...
// — folded by the fixed tree in reduce8() with a sequential tail.
// matmul's transposed form and matmul_tree apply exactly that dot() to
// every output element (the vector paths run several elements' lanes side
// by side, never mixing them). Elementwise kernels, matmul's
// non-transposed form and matmul_ta are per-element chains in a fixed
// order.
// Both targets implement exactly these orders with IEEE-754 single ops and
// no FMA contraction (the vector TU is compiled with -ffp-contract=off and
// uses mul+add, not vfmadd; vector divide/sqrt are correctly rounded like
// their scalar counterparts). So results are BITWISE IDENTICAL run-to-run
// and across dispatch targets — `--kernel-target scalar` cannot change a
// retrieved sequence. The
// documented tolerance is relative to the pre-kernel naive sequential
// loops: reassociating a length-k sum into 8 lanes perturbs it by at most
// ~k·eps relative, which is why op-level tests compare against
// double-precision references rather than the old scalar order.
//
// Threading: none. Every kernel runs on the calling thread; parallelism
// lives one level up, across labeled sequences, restarts and baseline
// rounds (clo::util::ThreadPool), and never nests inside a kernel.
//
// All kernels tolerate unaligned pointers (tensor interiors are sliced at
// arbitrary offsets); Tensor storage is 64-byte aligned purely as a
// performance property.

#include <cstddef>

namespace clo::nn::kernel {

// --- Runtime dispatch ---------------------------------------------------

/// Dispatch targets, in ascending preference order.
enum class Target { kScalar = 0, kAvx2 = 1 };

/// True when the TU for `t` was compiled into this binary (kScalar always).
bool target_compiled(Target t);
/// True when target_compiled(t) and the CPU can execute it.
bool target_supported(Target t);
/// The highest supported target — what dispatch uses by default.
Target best_supported_target();
/// Force dispatch to `t`, clamped down to the best supported target not
/// above it (forcing kAvx2 on a host without AVX2+FMA yields kScalar).
/// Returns the target actually active afterwards.
Target set_target(Target t);
/// The target calls currently dispatch to.
Target current_target();
/// "scalar" / "avx2".
const char* target_name(Target t);
/// target_name(current_target()).
const char* active_target();
/// Parse a --kernel-target value ("scalar", "avx2", or "auto" =
/// best supported). Returns false for unknown names.
bool parse_target(const char* name, Target* out);

// --- Reductions (8-lane fixed-tree order) -------------------------------

/// sum_i a[i]*b[i]
float dot(const float* a, const float* b, std::size_t n);
/// sum_i (a[i]-b[i])^2
float sqdist(const float* a, const float* b, std::size_t n);
/// sum_i a[i]
float sum(const float* a, std::size_t n);
/// max_i a[i]; n must be >= 1. Pinned NaN semantics: when ANY element is
/// NaN the result is the canonical quiet NaN (std::numeric_limits quiet),
/// regardless of the NaN's position or payload — identical on every
/// target. (The pre-PR-10 `x > m ? x : m` scan silently dropped a NaN
/// that appeared before the running max, contradicting this header.)
float max_value(const float* a, std::size_t n);

// --- Elementwise --------------------------------------------------------

/// y[i] += a * x[i]
void axpy(float* y, float a, const float* x, std::size_t n);
/// y[i] += x[i]
void acc(float* y, const float* x, std::size_t n);
void add(float* out, const float* a, const float* b, std::size_t n);
void mul(float* out, const float* a, const float* b, std::size_t n);
/// out[i] = a[i] * s
void scale(float* out, const float* a, float s, std::size_t n);
/// y[i] /= z
void div_inplace(float* y, float z, std::size_t n);

/// One fused Adam step over a parameter slab:
///   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
///   p -= lr * (m/bias_c1) / (sqrt(v/bias_c2) + eps)
/// in exactly that per-element operation order on all targets.
void adam_update(float* p, float* m, float* v, const float* g, std::size_t n,
                 float beta1, float beta2, float lr, float bias_c1,
                 float bias_c2, float eps);

// --- Matrix multiply ----------------------------------------------------

/// out[m,n] += A[m,k] · B, where B is [k,n] (or [n,k] when transpose_b).
/// Non-transposed: each out element is a sequential chain over l ascending
/// (the vector paths block columns, which runs many chains in parallel
/// without reassociating any of them). Transposed: each out element gets
/// one full 8-lane-tree dot() added to it.
void matmul(const float* a, const float* b, float* out, int m, int k, int n,
            bool transpose_b);

/// out[k,n] += Aᵀ · B, where A is [m,k] and B is [m,n] — the matmul
/// backward dB kernel. Each out element is a sequential mul+add chain over
/// the shared row index i ascending (exactly the accumulation order of
/// the autograd loop it replaced).
void matmul_ta(const float* a, const float* b, float* out, int m, int k,
               int n);

/// out[i,j] += dot(A[i,:], B[:,j]) over strided tiles: A is [m,k] with row
/// stride lda, B is [k,n] with row stride ldb, out is [m,n] with row
/// stride ldo. Each element is exactly dot()'s 8-lane tree over the column
/// (lane t takes l = t, t+8, ...; reduce8; then the sequential tail), added
/// to out once — conv1d's weight gradient, one call per tap.
void matmul_tree(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n);

}  // namespace clo::nn::kernel
