/// \file emit_rtl.cpp
/// Emit the FuseCU Verilog RTL (XS PE + compute unit + 4-CU top) to stdout
/// — the counterpart of the paper's open-sourced Chisel flow.
///
/// Usage: emit_rtl [--n SIZE] [--data-width W] [--acc-width W] > fusecu.v

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "rtl/verilog_gen.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

int main(int argc, char** argv) {
  try {
    fusecu::ObsSession obs(argc, argv);
    ArgParser args({}, {"--n", "--data-width", "--acc-width"});
    args.parse_or_exit(argc, argv,
                       "usage: emit_rtl [--n SIZE] [--data-width W] [--acc-width W] > fusecu.v\n");
    RtlParams params;
    params.unit_size = args.option_int("--n", 8);
    params.data_width = static_cast<int>(args.option_int("--data-width", 16));
    params.acc_width = static_cast<int>(args.option_int("--acc-width", 32));

    const std::string rtl = generate_all(params);
    RtlLintResult lint = lint_verilog(rtl);
    if (!lint.ok) {
      std::fprintf(stderr, "internal error: generated RTL failed lint: %s\n",
                   lint.message.c_str());
      return 1;
    }
    std::cout << rtl;
    std::fprintf(stderr, "emitted %d modules (%d instantiations), lint clean\n",
                 lint.module_count, lint.instance_count);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
