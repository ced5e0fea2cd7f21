// Per-module execution trace of one MHA and one FFN ResBlock run: prints the
// head-by-head schedule (Algorithm 1) and writes the full interval trace as
// CSV — the textual equivalent of a waveform view of Fig. 5.
//
//   $ ./examples/profile_timeline [out.csv]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/accelerator.hpp"
#include "quant/qresblock.hpp"
#include "reference/functional.hpp"
#include "sim/gantt.hpp"
#include "tensor/ops.hpp"

int main(int argc, char** argv) {
  using namespace tfacc;

  // A 2-head, d_model=128 block keeps the printed trace readable while using
  // exactly the same schedule logic as the full-size model.
  ModelConfig cfg;
  cfg.name = "profile";
  cfg.d_model = 128;
  cfg.d_ff = 512;
  cfg.num_heads = 2;
  cfg.head_dim = 64;

  Rng rng(3);
  const MhaWeights mw = MhaWeights::random(cfg, rng);
  const FfnWeights fw = FfnWeights::random(cfg, rng);
  const int s = 64;
  MatF x(s, cfg.d_model);
  fill_normal(x, rng, 0, 1);
  const Mask mask = causal_mask(s);

  MhaQuantized::Calibration calib;
  calib.q.push_back(x);
  calib.kv.push_back(x);
  calib.mask.push_back(mask);
  const auto qm = MhaQuantized::build(mw, calib, SoftmaxImpl::kHardware);
  const auto qf = FfnQuantized::build(fw, {x});

  Accelerator acc;
  const auto mha = acc.run_mha(qm, qm.quantize_q(x), qm.quantize_kv(x), mask);
  const auto ffn = acc.run_ffn(qf, qf.quantize_in(
                                       qm.dequantize_out(mha.out)));

  auto print_trace = [](const char* name, const RunReport& rep) {
    std::printf("\n%s — %lld cycles (%.2f us), SA busy %.1f%%\n", name,
                static_cast<long long>(rep.total_cycles), rep.microseconds(),
                100.0 * rep.sa_utilization());
    std::printf("%-10s %10s %10s %8s  %s\n", "module", "start", "end", "dur",
                "op");
    for (const auto& module : rep.timeline.modules())
      for (const auto& iv : module.intervals())
        std::printf("%-10s %10lld %10lld %8lld  %s\n", module.name().c_str(),
                    static_cast<long long>(iv.start),
                    static_cast<long long>(iv.end),
                    static_cast<long long>(iv.duration()),
                    rep.timeline.label(iv).c_str());
  };
  print_trace("MHA ResBlock (Algorithm 1, lines 1-13)", mha.report);
  print_trace("FFN ResBlock (Algorithm 1, lines 14-22)", ffn.report);

  std::printf("\nGantt view of the MHA run (softmax overlap visible):\n");
  render_gantt(mha.report.timeline, std::cout);

  const char* path = argc > 1 ? argv[1] : "timeline.csv";
  std::ofstream out(path);
  mha.report.timeline.write_csv(out);
  std::printf("\nMHA trace written to %s (module,start,end,label)\n", path);
  return 0;
}
