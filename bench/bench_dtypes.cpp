// Sections 3.3 and 10.1: datatype and vector-width portability.
//
// Prints (a) the Eq. 3/4 register blocks the solver derives for each
// datatype/ISA instance the paper names, and (b) measured host
// throughput of the FP32 and INT8 convolution engines on a ResNet
// layer.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/fai.h"
#include "core/ndirect.h"
#include "core/quantized.h"
#include "runtime/timer.h"
#include "tensor/rng.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

// Measure the int8 engine on `p` with the fp32 dequantize epilogue (the
// end-to-end inference configuration). Each run packs the raw filter, so
// the run includes the filter transform, matching the Section 7.4
// methodology the fp32 row uses. GFLOPS are fp32-equivalent.
double time_int8_gflops(const ConvParams& p, Int8Backend backend,
                        double min_seconds) {
  std::vector<std::uint8_t> in(static_cast<std::size_t>(p.input_elems()));
  std::vector<std::int8_t> flt(
      static_cast<std::size_t>(p.filter_elems()));
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>((i * 97 + 13) & 0xff);
  }
  for (std::size_t i = 0; i < flt.size(); ++i) {
    flt[i] = static_cast<std::int8_t>(((i * 61 + 7) & 0xff) - 128);
  }
  std::vector<float> scales(static_cast<std::size_t>(p.K), 1.0f / 16384);
  std::vector<float> out(static_cast<std::size_t>(p.output_elems()));
  Int8Epilogue ep;
  ep.dequant_scale = scales.data();
  Int8Output dst;
  dst.f32 = out.data();
  Int8ConvOptions opt;
  opt.backend = backend;
  const Int8Conv conv(p, opt);
  return time_gflops(
      [&] { conv.run(in.data(), 128, flt.data(), ep, dst); },
      static_cast<double>(p.flops()), min_seconds);
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  JsonReport report("dtypes");

  print_header(
      "Eq. 3/4 register blocks across datatypes and vector widths");
  const std::vector<int> w = {16, 8, 8, 8, 8, 12};
  print_row({"ISA instance", "lanes", "regs", "Vw", "Vk", "FAI(3x3)"}, w);
  struct Isa {
    const char* name;
    int lanes, regs;
  };
  const Isa isas[] = {
      {"ARMv8 FP64", 2, 32},    {"ARMv8 FP32", 4, 32},
      {"ARMv8.2 FP16", 8, 32},  {"SVE-256 FP32", 8, 32},
      {"SVE-512 FP32", 16, 32}, {"AVX-512 FP32", 16, 32},
  };
  for (const Isa& isa : isas) {
    const RegisterBlock b = solve_register_block(3, isa.lanes, isa.regs);
    print_row({isa.name, std::to_string(isa.lanes),
               std::to_string(isa.regs), std::to_string(b.vw),
               std::to_string(b.vk), fmt(fai_microkernel(b.vw, b.vk, 3), 2)},
              w);
  }
  std::printf("(the paper's instantiation is the ARMv8 FP32 row: "
              "Vw=12, Vk=8)\n");

  // Measured datatype paths on a scaled ResNet layer 10.
  const ConvParams p = scale_layer(table4_layer(10, 1).params, cfg);
  std::printf("\n[measured] host, layer 10 scaled to %s:\n",
              p.to_string().c_str());
  const std::vector<int> w2 = {16, 12};
  print_row({"datatype", "GFLOPS"}, w2);
  const double flops = static_cast<double>(p.flops());

  // FP32 (the paper's engine).
  {
    Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
    Tensor flt = make_filter_kcrs(p.K, p.C, p.R, p.S);
    fill_random(in, 1);
    fill_random(flt, 2);
    const NdirectConv conv(p, {.threads = cfg.threads});
    const double g = time_gflops([&] { (void)conv.run(in, flt); }, flops,
                                 cfg.min_seconds);
    print_row({"FP32", fmt(g, 2)}, w2);
    report.add("layer10.fp32_gflops", g);
  }

  // INT8 on the same layer, for the single-layer dtype ladder.
  {
    const double g =
        time_int8_gflops(p, int8_preferred_backend(), cfg.min_seconds);
    print_row({"INT8 (" +
                   std::string(int8_backend_name(int8_preferred_backend())) +
                   ")",
               fmt(g, 2)},
              w2);
    report.add("layer10.int8_gflops", g);
  }

  // Section 14: the int8 path on the bandwidth-bound Table 4 layers
  // (late 1x1 convolutions — low arithmetic intensity, where the 4x
  // byte-traffic reduction pays the most). Both the preferred backend
  // and the forced widening-emulation path are timed; on a
  // dot-product-capable ARM host the preferred column is the SDOT
  // kernels.
  print_header("INT8 vs FP32 on bandwidth-bound Table 4 layers");
  const std::vector<int> w3 = {22, 10, 14, 14, 10};
  print_row({"layer", "fp32", "int8 " +
                 std::string(int8_backend_name(int8_preferred_backend())),
             "int8 emulated", "speedup"},
            w3);
  for (const int id : {17, 22, 23}) {
    const ConvParams lp = scale_layer(table4_layer(id, 1).params, cfg);
    Tensor in = make_input_nchw(lp.N, lp.C, lp.H, lp.W);
    Tensor flt = make_filter_kcrs(lp.K, lp.C, lp.R, lp.S);
    fill_random(in, 6);
    fill_random(flt, 7);
    const NdirectConv fconv(lp, {.threads = cfg.threads});
    const double f32 =
        time_gflops([&] { (void)fconv.run(in, flt); },
                    static_cast<double>(lp.flops()), cfg.min_seconds);
    const double i8 =
        time_int8_gflops(lp, int8_preferred_backend(), cfg.min_seconds);
    const double i8emu =
        time_int8_gflops(lp, Int8Backend::kEmulated, cfg.min_seconds);
    const std::string label = "layer" + std::to_string(id);
    print_row({label + " " + lp.to_string(), fmt(f32, 1), fmt(i8, 1),
               fmt(i8emu, 1), fmt(i8 / f32, 2) + "x"},
              w3);
    report.add(label + ".fp32_gflops", f32);
    report.add(label + ".int8_gflops", i8);
    report.add(label + ".int8_emulated_gflops", i8emu);
    report.add(label + ".int8_speedup", i8 / f32);
  }
  report.add("int8_backend",
             std::string(int8_backend_name(int8_preferred_backend())));
  report.write();
  return 0;
}
