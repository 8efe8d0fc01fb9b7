/**
 * @file
 * Fig. 18: sensitivity of SIPT+IDB to the physical-memory
 * operating condition — normal (aged machine), artificially
 * fragmented memory (Fu(9) > 0.95), transparent huge pages off,
 * and zero >4KiB contiguity — on both the OOO and in-order
 * cores, for all four SIPT configurations. Reports average IPC
 * and cache energy normalised to the baseline L1 under the same
 * condition, plus prediction accuracy (fast-access fraction).
 *
 * By default a documented subset of applications spanning the
 * three behaviour classes is used (SIPT_ALL_APPS=1 for all 26).
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/table.hh"

int
main()
{
    using namespace sipt;
    using sim::MemCondition;

    bench::figureHeader(
        "Fig. 18: sensitivity to memory condition "
        "(averages over app subset)");

    const auto app_list = bench::sensitivityApps();
    const std::vector<MemCondition> conds = {
        MemCondition::Normal, MemCondition::Fragmented,
        MemCondition::ThpOff, MemCondition::NoContiguity};
    const auto &cfgs = sim::siptConfigs();

    TextTable t({"core", "condition", "config", "IPC",
                 "energy", "pred.acc"});

    // Submit the full sweep up front, app-major: for each condition
    // and app, both cores' baseline and SIPT runs, which share one
    // process image and its translated stream. Each (core,
    // condition) baseline set is simulated once and reused by all
    // four SIPT configs. Results are fetched below in print order.
    const std::size_t n_apps = app_list.size();
    const std::size_t n_conds = conds.size();
    const std::size_t n_cfgs = cfgs.size();
    std::vector<bench::RunFuture> base_f(2 * n_conds * n_apps);
    std::vector<bench::RunFuture> cfg_f(2 * n_conds * n_cfgs * n_apps);
    // Index of (core, condition, [config,] app) in print order.
    auto base_at = [&](std::size_t core, std::size_t c,
                       std::size_t a) {
        return (core * n_conds + c) * n_apps + a;
    };
    auto cfg_at = [&](std::size_t core, std::size_t c, std::size_t k,
                      std::size_t a) {
        return ((core * n_conds + c) * n_cfgs + k) * n_apps + a;
    };
    for (std::size_t c = 0; c < n_conds; ++c) {
        for (std::size_t a = 0; a < n_apps; ++a) {
            for (std::size_t core = 0; core < 2; ++core) {
                sim::SystemConfig base;
                base.outOfOrder = core == 0;
                base.condition = conds[c];
                base.measureRefs = bench::measureRefs() / 2;
                base_f[base_at(core, c, a)] =
                    bench::sweep().enqueue(app_list[a], base);
                for (std::size_t k = 0; k < n_cfgs; ++k) {
                    sim::SystemConfig cfg = base;
                    cfg.l1Config = cfgs[k];
                    cfg.policy = IndexingPolicy::SiptCombined;
                    cfg_f[cfg_at(core, c, k, a)] =
                        bench::sweep().enqueue(app_list[a], cfg);
                }
            }
        }
    }

    std::size_t base_i = 0, cfg_i = 0;
    for (bool ooo : {true, false}) {
        for (const auto cond : conds) {
            std::vector<double> base_ipc, base_energy;
            for (std::size_t a = 0; a < app_list.size(); ++a) {
                const auto r = base_f[base_i++].get();
                base_ipc.push_back(r.ipc);
                base_energy.push_back(r.energy.total());
            }
            for (const auto cfg_id : cfgs) {
                std::vector<double> speedups, energies, accs;
                for (std::size_t a = 0; a < app_list.size();
                     ++a) {
                    const auto r = cfg_f[cfg_i++].get();
                    speedups.push_back(r.ipc / base_ipc[a]);
                    energies.push_back(r.energy.total() /
                                       base_energy[a]);
                    accs.push_back(r.fastFraction);
                }
                t.beginRow();
                t.add(ooo ? "OOO" : "in-order");
                t.add(sim::conditionName(cond));
                t.add(sim::l1ConfigName(cfg_id));
                t.add(harmonicMean(speedups), 3);
                t.add(arithmeticMean(energies), 3);
                t.add(arithmeticMean(accs), 3);
            }
        }
    }
    t.print(std::cout);
    bench::sweepFooter();

    std::cout << "\nPaper shape (32KiB 2-way, OOO): prediction "
                 "accuracy 86.7% -> 84% fragmented -> 83.1% "
                 "THP-off -> 73% no-contiguity; IPC gain 5.9% "
                 "-> 5.3% -> 4.8% -> 3.8%. Degradation is real "
                 "but mild.\n";
    return 0;
}
