// ABL-ERR — the published erratum: the archived manuscript marks
// "Correction: Insert 2" at Eq. 21/23, i.e. the M/G/2 wait of the up-link
// bundle must be evaluated at the TOTAL bundle rate 2λ⟨l,l+1⟩, not the
// per-link rate as originally typeset.
//
// This is a model-only experiment (no simulation needed): it quantifies how
// far the uncorrected formula drifts — the uncorrected version halves the
// apparent load on every up-link pool, so it under-predicts latency and
// over-predicts capacity.
//
//   ./ablation_erratum_2lambda [--levels=5] [--worm=16]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 5));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  bench::reject_unknown_flags(args);

  core::FatTreeModelOptions corrected{.levels = levels,
                                      .worm_flits = static_cast<double>(worm)};
  core::FatTreeModelOptions typo = corrected;
  typo.ablation.erratum_2lambda = false;

  core::FatTreeModel model_ok(corrected), model_typo(typo);
  harness::SweepEngine engine;
  const double sat_ok = engine.saturation_load(model_ok);
  const double sat_typo = engine.saturation_load(model_typo);

  const std::vector<double> fracs{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95};
  std::vector<double> loads;
  for (double f : fracs) loads.push_back(sat_ok * f);
  const auto pts_ok = engine.sweep_load(model_ok, loads);
  const auto pts_typo = engine.sweep_load(model_typo, loads);

  util::Table t({"load(flits/cyc)", "corrected L", "as-typeset L", "drift %"});
  t.set_precision(0, 4);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double a = pts_ok[i].est.latency;
    const core::LatencyEstimate& b = pts_typo[i].est;
    t.add_row({loads[i], a,
               b.stable ? util::Cell{b.latency} : util::Cell{std::string("inf")},
               b.stable ? util::Cell{100.0 * (b.latency - a) / a} : util::Cell{}});
  }
  harness::print_experiment(
      "ABL-ERR: corrected Eq. 21/23 (M/G/2 at 2λ) vs as-typeset (M/G/2 at λ)", t);
  std::printf("saturation: corrected %.5f vs as-typeset %.5f flits/cyc/PE"
              " (+%.1f%% optimistic)\n",
              sat_ok, sat_typo, 100.0 * (sat_typo / sat_ok - 1.0));
  std::printf("(TAB-THR shows the simulator agrees with the corrected form)\n");
  return 0;
}
