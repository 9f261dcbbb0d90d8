/// \file llama_sweep.cpp
/// Sequence-length sensitivity study (the Fig. 11 scenario) as a library
/// consumer would run it: sweep LLaMA2 from a short-context to a
/// long-context configuration and watch FuseCU's memory-access advantage
/// grow with the quadratic attention intermediate.
///
/// The sweep runs through the plan service: each (seq, platform) evaluation
/// is a job on the worker pool, and the service's interceptors cache every
/// intra-op / fused-pair / arch plan — across sequence lengths most
/// projection shapes repeat, so later rows plan almost entirely from cache.
///
/// Usage: llama_sweep [max_seq] [--threads N] [--cache-mb MB] [--stats]

#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/obs_session.hpp"
#include "serve/plan_service.hpp"
#include "workloads/model_eval.hpp"

#include <iostream>

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  try {
    const char* const usage =
        "usage: llama_sweep [max_seq >= 256] [--threads N] [--cache-mb MB] [--stats]\n";
    ArgParser args({"--stats"}, {"--threads", "--cache-mb"});
    args.parse_or_exit(argc, argv, usage);
    Index max_seq = 16384;
    if (!args.positional().empty()) {
      max_seq = std::atoll(args.positional()[0].c_str());
      if (max_seq < 256) {
        std::fputs(usage, stderr);
        return 2;
      }
    }

    ServeOptions options;
    options.threads = static_cast<int>(args.option_int("--threads", 4));
    options.cache_bytes =
        static_cast<std::size_t>(args.option_int("--cache-mb", 64)) * 1024 * 1024;
    PlanService service(options);

    struct Row {
      Index seq;
      std::future<ModelEval> tpu;
      std::future<ModelEval> fcu;
    };
    std::vector<Row> rows;
    for (Index seq = 256; seq <= max_seq; seq *= 2) {
      Row row;
      row.seq = seq;
      row.tpu = service.pool().submit(
          [seq]() { return evaluate_model(llama2_at_seq(seq), make_tpu_v4i()); });
      row.fcu = service.pool().submit(
          [seq]() { return evaluate_model(llama2_at_seq(seq), make_fusecu()); });
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
    if (args.has_flag("--stats")) {
      const CacheStats all = service.stats().combined();
      std::fprintf(stderr, "plan cache: %lld hits, %lld misses, %lld evictions\n",
                   static_cast<long long>(all.hits), static_cast<long long>(all.misses),
                   static_cast<long long>(all.evictions));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
