/**
 * @file
 * The product-sum check pass's tanh and log as plain functions: the
 * float instantiations of bp_math.inl's templates, which every wave
 * rung instantiates on its lane vectors. Within 1 ulp of the correctly
 * rounded float, and the same bits on every host and every rung.
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
 * checks every float), so a wave row whose lanes all lie there skips
 * the evaluation — most rows, once BP messages grow.
 */
inline constexpr float kBpTanhSaturated = 9.1f;

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_MATH_H
