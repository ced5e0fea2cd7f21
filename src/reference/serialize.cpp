#include "reference/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <utility>

#include "common/check.hpp"

namespace tfacc {

namespace {

constexpr std::uint32_t kMagic = 0x74666143;  // "tfaC"
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  TFACC_CHECK_MSG(is.good(), "truncated weight file");
  return v;
}

void write_mat(std::ostream& os, const MatF& m) {
  write_u32(os, static_cast<std::uint32_t>(m.rows()));
  write_u32(os, static_cast<std::uint32_t>(m.cols()));
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

/// Bytes between the read position and the end of a seekable stream.
std::uint64_t bytes_left(std::istream& is) {
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(here);
  TFACC_CHECK_MSG(here >= 0 && end >= here && is.good(),
                  "weight stream is not seekable");
  return static_cast<std::uint64_t>(end - here);
}

/// Reads one tensor of the shape the config implies (rows, cols > 0). The
/// declared shape must match it and the payload must fit in what is left of
/// the stream before anything is allocated, so a tampered field can never
/// size an allocation.
MatF read_mat(std::istream& is, int rows, int cols) {
  const std::uint32_t r = read_u32(is);
  const std::uint32_t c = read_u32(is);
  TFACC_CHECK_MSG(r == static_cast<std::uint32_t>(rows) &&
                      c == static_cast<std::uint32_t>(cols),
                  "tensor shape " << r << 'x' << c << " != expected " << rows
                                  << 'x' << cols);
  const std::uint64_t bytes = std::uint64_t{r} * c * sizeof(float);
  TFACC_CHECK_MSG(bytes <= bytes_left(is), "truncated tensor payload");
  MatF m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  TFACC_CHECK_MSG(is.good(), "truncated tensor payload");
  return m;
}

void write_vec(std::ostream& os, const std::vector<float>& v) {
  write_u32(os, static_cast<std::uint32_t>(v.size()));
  write_u32(os, 1);
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float> read_vec(std::istream& is, int n) {
  const MatF m = read_mat(is, n, 1);
  std::vector<float> v(static_cast<std::size_t>(m.rows()));
  for (int r = 0; r < m.rows(); ++r) v[static_cast<std::size_t>(r)] = m(r, 0);
  return v;
}

void write_mha(std::ostream& os, const MhaWeights& w) {
  write_u32(os, static_cast<std::uint32_t>(w.heads.size()));
  for (const auto& head : w.heads) {
    write_mat(os, head.wq);
    write_vec(os, head.bq);
    write_mat(os, head.wk);
    write_vec(os, head.bk);
    write_mat(os, head.wv);
    write_vec(os, head.bv);
  }
  write_mat(os, w.wg);
  write_vec(os, w.bg);
  write_vec(os, w.norm.gamma);
  write_vec(os, w.norm.beta);
}

MhaWeights read_mha(std::istream& is, const ModelConfig& cfg) {
  const std::uint32_t heads = read_u32(is);
  TFACC_CHECK_MSG(heads == static_cast<std::uint32_t>(cfg.num_heads),
                  "MHA with " << heads << " heads, config has "
                              << cfg.num_heads);
  const int d = cfg.d_model;
  const int hd = cfg.head_dim;
  MhaWeights w;
  for (std::uint32_t h = 0; h < heads; ++h) {
    HeadWeights head;
    head.wq = read_mat(is, d, hd);
    head.bq = read_vec(is, hd);
    head.wk = read_mat(is, d, hd);
    head.bk = read_vec(is, hd);
    head.wv = read_mat(is, d, hd);
    head.bv = read_vec(is, hd);
    w.heads.push_back(std::move(head));
  }
  w.wg = read_mat(is, d, d);
  w.bg = read_vec(is, d);
  w.norm.gamma = read_vec(is, d);
  w.norm.beta = read_vec(is, d);
  return w;
}

void write_ffn(std::ostream& os, const FfnWeights& w) {
  write_mat(os, w.w1);
  write_vec(os, w.b1);
  write_mat(os, w.w2);
  write_vec(os, w.b2);
  write_vec(os, w.norm.gamma);
  write_vec(os, w.norm.beta);
}

FfnWeights read_ffn(std::istream& is, const ModelConfig& cfg) {
  FfnWeights w;
  w.w1 = read_mat(is, cfg.d_model, cfg.d_ff);
  w.b1 = read_vec(is, cfg.d_ff);
  w.w2 = read_mat(is, cfg.d_ff, cfg.d_model);
  w.b2 = read_vec(is, cfg.d_model);
  w.norm.gamma = read_vec(is, cfg.d_model);
  w.norm.beta = read_vec(is, cfg.d_model);
  return w;
}

}  // namespace

void save_weights(const TransformerWeights& w, std::ostream& os) {
  write_u32(os, kMagic);
  write_u32(os, kVersion);
  write_u32(os, static_cast<std::uint32_t>(w.config.d_model));
  write_u32(os, static_cast<std::uint32_t>(w.config.d_ff));
  write_u32(os, static_cast<std::uint32_t>(w.config.num_heads));
  write_u32(os, static_cast<std::uint32_t>(w.config.head_dim));
  write_u32(os, static_cast<std::uint32_t>(w.config.num_encoder_layers));
  write_u32(os, static_cast<std::uint32_t>(w.config.num_decoder_layers));
  write_u32(os, static_cast<std::uint32_t>(w.vocab_size));
  write_mat(os, w.src_embedding);
  write_mat(os, w.tgt_embedding);
  write_mat(os, w.output_projection);
  for (const auto& layer : w.encoder_layers) {
    write_mha(os, layer.mha);
    write_ffn(os, layer.ffn);
  }
  for (const auto& layer : w.decoder_layers) {
    write_mha(os, layer.self_mha);
    write_mha(os, layer.cross_mha);
    write_ffn(os, layer.ffn);
  }
  TFACC_CHECK_MSG(os.good(), "write failure while saving weights");
}

void save_weights(const TransformerWeights& w, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  TFACC_CHECK_ARG_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_weights(w, os);
}

TransformerWeights load_weights(std::istream& is) {
  TFACC_CHECK_MSG(read_u32(is) == kMagic, "not a tfacc weight file");
  TFACC_CHECK_MSG(read_u32(is) == kVersion, "unsupported weight file version");
  TransformerWeights w;
  w.config.name = "loaded";
  w.config.d_model = static_cast<int>(read_u32(is));
  w.config.d_ff = static_cast<int>(read_u32(is));
  w.config.num_heads = static_cast<int>(read_u32(is));
  w.config.head_dim = static_cast<int>(read_u32(is));
  w.config.num_encoder_layers = static_cast<int>(read_u32(is));
  w.config.num_decoder_layers = static_cast<int>(read_u32(is));
  w.vocab_size = static_cast<int>(read_u32(is));
  const ModelConfig& cfg = w.config;
  cfg.validate();
  TFACC_CHECK_MSG(w.vocab_size > 0, "vocab_size " << w.vocab_size);
  w.src_embedding = read_mat(is, w.vocab_size, cfg.d_model);
  w.tgt_embedding = read_mat(is, w.vocab_size, cfg.d_model);
  w.output_projection = read_mat(is, cfg.d_model, w.vocab_size);
  // The layer vectors grow as layers are read: a tampered layer count runs
  // into the end of the stream instead of sizing an allocation.
  for (int l = 0; l < cfg.num_encoder_layers; ++l) {
    EncoderLayerWeights layer;
    layer.mha = read_mha(is, cfg);
    layer.ffn = read_ffn(is, cfg);
    w.encoder_layers.push_back(std::move(layer));
  }
  for (int l = 0; l < cfg.num_decoder_layers; ++l) {
    DecoderLayerWeights layer;
    layer.self_mha = read_mha(is, cfg);
    layer.cross_mha = read_mha(is, cfg);
    layer.ffn = read_ffn(is, cfg);
    w.decoder_layers.push_back(std::move(layer));
  }
  return w;
}

TransformerWeights load_weights(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TFACC_CHECK_ARG_MSG(is.is_open(), "cannot open " << path);
  return load_weights(is);
}

}  // namespace tfacc
