/**
 * @file
 * The float arithmetic BP shares op-for-op between the scalar core
 * and every wave rung: the product-sum check pass's tanh and log as
 * plain functions (the float instantiations of bp_math.inl's
 * templates, which every wave rung instantiates on its lane vectors;
 * within 1 ulp of the correctly rounded float, and the same bits on
 * every host and every rung), and the two message constants of both
 * BP rules.
 */

#ifndef CYCLONE_DECODER_BP_MATH_H
#define CYCLONE_DECODER_BP_MATH_H

namespace cyclone {

/** tanh(y) for y >= 0. */
float bpTanh(float y);

/** log(x) for finite x >= 1. */
float bpLog(float x);

/**
 * bpTanh(y) is exactly 1.0f for every y >= this (tests/test_decoder.cc
 * checks every float). A product-sum wave row whose kept lanes (active:
 * neither converged nor idle) all lie there skips the tanh, and its
 * outgoing message is the check's one saturated-edge message — most
 * rows, once BP messages grow (see checkToVarUpdateWave).
 */
inline constexpr float kBpTanhSaturated = 9.1f;

/** Normalization factor of min-sum check messages. */
inline constexpr float kMinSumScale = 0.9f;

/** Every BP message is clamped to [-kBpMessageClamp, kBpMessageClamp]. */
inline constexpr float kBpMessageClamp = 50.0f;

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_MATH_H
