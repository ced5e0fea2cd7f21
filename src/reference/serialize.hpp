// Binary serialization of TransformerWeights, so trained models can be
// saved once and reused by examples/benches (and shipped as artifacts).
//
// Format: a small magic/version header, the ModelConfig scalars, vocab size,
// then every parameter tensor in the canonical enumeration order, each as
// (rows, cols, float32 row-major payload). Little-endian, as written.
#pragma once

#include <iosfwd>
#include <string>

#include "reference/weights.hpp"

namespace tfacc {

/// Serialize to a stream/file. Throws CheckError on I/O failure.
void save_weights(const TransformerWeights& w, std::ostream& os);
void save_weights(const TransformerWeights& w, const std::string& path);

/// Deserialize; validates the header and all shapes against the embedded
/// config, and sizes no allocation beyond the bytes left in the stream.
/// Throws CheckError on malformed input. The stream must be seekable.
TransformerWeights load_weights(std::istream& is);
TransformerWeights load_weights(const std::string& path);

}  // namespace tfacc
