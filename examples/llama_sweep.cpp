/// \file llama_sweep.cpp
/// Sequence-length sensitivity study (the Fig. 11 scenario) as a library
/// consumer would run it: sweep LLaMA2 from a short-context to a
/// long-context configuration and watch FuseCU's memory-access advantage
/// grow with the quadratic attention intermediate.
///
/// Each (seq, platform) evaluation is a job on a worker pool; rows print in
/// sequence order.
///
/// Usage: llama_sweep [max_seq] [--threads N]

#include <cstdio>
#include <future>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/obs_session.hpp"
#include "serve/thread_pool.hpp"
#include "workloads/model_eval.hpp"

#include <iostream>

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  try {
    const char* const usage =
        "usage: llama_sweep [max_seq >= 256] [--threads N]\n";
    ArgParser args({}, {"--threads"});
    args.parse_or_exit(argc, argv, usage);
    const Index max_seq = args.positional_int(0, "max_seq", 16384, 256);

    ThreadPool pool(static_cast<int>(args.option_int("--threads", 4)));

    struct Row {
      Index seq;
      std::future<ModelEval> tpu;
      std::future<ModelEval> fcu;
    };
    std::vector<Row> rows;
    for (Index seq = 256; seq <= max_seq; seq *= 2) {
      Row row;
      row.seq = seq;
      row.tpu =
          pool.submit([seq]() { return evaluate_model(llama2_at_seq(seq), make_tpu_v4i()); });
      row.fcu =
          pool.submit([seq]() { return evaluate_model(llama2_at_seq(seq), make_fusecu()); });
      rows.push_back(std::move(row));
    }

    TextTable t({"seq", "TPUv4i MA", "FuseCU MA", "saving", "TPUv4i util", "FuseCU util",
                 "speedup"});
    for (Row& row : rows) {
      ModelEval tpu = row.tpu.get();
      ModelEval fcu = row.fcu.get();
      char saving[16], ut[16], uf[16], sp[16];
      std::snprintf(saving, sizeof(saving), "%5.1f%%",
                    100.0 * (1.0 - static_cast<double>(fcu.access) /
                                       static_cast<double>(tpu.access)));
      std::snprintf(ut, sizeof(ut), "%.3f", tpu.utilization);
      std::snprintf(uf, sizeof(uf), "%.3f", fcu.utilization);
      std::snprintf(sp, sizeof(sp), "%.2fx",
                    static_cast<double>(tpu.cycles) / static_cast<double>(fcu.cycles));
      t.add_row({std::to_string(row.seq), std::to_string(tpu.access), std::to_string(fcu.access),
                 saving, ut, uf, sp});
    }
    std::printf("LLaMA2 (32 heads, hidden 4096, batch 16), one layer, FuseCU vs TPUv4i:\n");
    t.print(std::cout);
    std::printf("\nLonger sequences -> larger attention intermediates -> bigger fusion wins.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
