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

namespace {

// Flips the bits of a layer's weights in (row, column, bit) order, as
// inject_bit_flips does on the unpacked matrix, so a seed draws the same
// flips whatever the weights' layout, and repacks in the layout it found.
std::int64_t inject_layer_flips(QuantizedLinear& layer, double ber, Rng& rng) {
  MatI8 w = unpack_b_i8(layer.wpack);
  const std::int64_t flips = inject_bit_flips(w, ber, rng);
  layer.wpack = pack_b_i8(w, layer.wpack.layout);
  return flips;
}

}  // namespace

std::int64_t inject_faults(MhaQuantized& block, double ber, Rng& rng) {
  std::int64_t flips = 0;
  for (auto& head : block.heads) {
    flips += inject_layer_flips(head.wq, ber, rng);
    flips += inject_layer_flips(head.wk, ber, rng);
    flips += inject_layer_flips(head.wv, ber, rng);
  }
  flips += inject_layer_flips(block.wg, ber, rng);
  return flips;
}

std::int64_t inject_faults(FfnQuantized& block, double ber, Rng& rng) {
  std::int64_t flips = inject_layer_flips(block.w1, ber, rng);
  flips += inject_layer_flips(block.w2, ber, rng);
  return flips;
}

}  // namespace tfacc
