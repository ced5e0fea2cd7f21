#include "quant/fault.hpp"

#include "common/check.hpp"

namespace tfacc {

std::int64_t inject_bit_flips(MatI8& m, double ber, Rng& rng) {
  TFACC_CHECK_ARG_MSG(ber >= 0.0 && ber <= 1.0, "ber=" << ber);
  if (ber == 0.0 || m.size() == 0) return 0;
  // Draw the number of flips from the expected binomial via per-bit
  // Bernoulli trials; cheap at the matrix sizes involved.
  std::int64_t flips = 0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.flip(ber)) {
          m(r, c) = static_cast<std::int8_t>(m(r, c) ^ (1 << bit));
          ++flips;
        }
      }
    }
  }
  return flips;
}

std::int64_t inject_faults(MhaQuantized& block, double ber, Rng& rng) {
  std::int64_t flips = 0;
  for (auto& head : block.heads) {
    flips += inject_bit_flips(head.wq.w, ber, rng);
    flips += inject_bit_flips(head.wk.w, ber, rng);
    flips += inject_bit_flips(head.wv.w, ber, rng);
    // The GEMM kernels read wpack, not w — re-pack the flipped bits.
    head.wq.repack();
    head.wk.repack();
    head.wv.repack();
  }
  flips += inject_bit_flips(block.wg.w, ber, rng);
  block.wg.repack();
  return flips;
}

std::int64_t inject_faults(FfnQuantized& block, double ber, Rng& rng) {
  std::int64_t flips = inject_bit_flips(block.w1.w, ber, rng);
  flips += inject_bit_flips(block.w2.w, ber, rng);
  block.w1.repack();
  block.w2.repack();
  return flips;
}

}  // namespace tfacc
