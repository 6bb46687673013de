// Full mission design walkthrough: given a bandwidth target, produce the
// SS-plane constellation plan (plane LTANs, satellite counts), compare it
// against the Walker-delta baseline, and report radiation and sparing.
//
// Usage: design_mission [--bandwidth=50] [--altitude-km=560] [--min-elev-deg=30]
//
// A malformed or unusable flag value (`--bandwidth=-1`) stops the run before
// any work, with the reason on stderr and exit status 2.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "constellation/sun_sync.h"
#include "core/evaluator.h"
#include "lsn/failures.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/expects.h"
#include "util/table.h"

using namespace ssplane;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    double bandwidth = 0.0;
    double altitude_m = 0.0;
    double min_elev = 0.0;
    try {
        bandwidth = args.get_double("bandwidth", 50.0);
        expects(std::isfinite(bandwidth) && bandwidth > 0.0,
                "--bandwidth must be finite and positive");
        altitude_m = args.get_double("altitude-km", 560.0) * 1000.0;
        expects(std::isfinite(altitude_m) && altitude_m > 0.0,
                "--altitude-km must be finite and positive");
        expects(constellation::sun_synchronous_inclination_rad(altitude_m).has_value(),
                "--altitude-km has no sun-synchronous inclination");
        const double min_elev_deg = args.get_double("min-elev-deg", 30.0);
        expects(min_elev_deg >= 0.0 && min_elev_deg < 90.0,
                "--min-elev-deg must lie in [0, 90)");
        min_elev = deg2rad(min_elev_deg);
    } catch (const contract_violation& e) {
        std::cerr << "design_mission: " << e.what() << "\n";
        return 2;
    }

    std::cout << "=== SS-plane mission design ===\n"
              << "bandwidth multiplier: " << bandwidth
              << ", altitude: " << altitude_m / 1000.0 << " km\n\n";

    const demand::population_model population;
    const demand::demand_model demand(population);
    const auto problem = core::make_design_problem(demand, bandwidth, altitude_m, min_elev);

    // --- SS design ---
    const auto design = core::greedy_ss_cover(problem);
    std::cout << "SS design: " << design.planes.size() << " planes x "
              << design.sats_per_plane << " satellites = " << design.total_satellites
              << " total (demand satisfied: " << (design.satisfied ? "yes" : "no")
              << ")\n\n";

    // LTAN histogram of the plan (which local times the fleet occupies).
    std::vector<int> ltan_histogram(24, 0);
    for (const auto& p : design.planes)
        ltan_histogram[static_cast<std::size_t>(p.ltan_h)]++;
    table_printer ltan_table({"LTAN bin", "planes"});
    for (int h = 0; h < 24; ++h) {
        if (ltan_histogram[static_cast<std::size_t>(h)] == 0) continue;
        ltan_table.row({format_number(h) + ":00-" + format_number(h + 1) + ":00",
                        format_number(ltan_histogram[static_cast<std::size_t>(h)])});
    }
    ltan_table.print(std::cout);

    // --- Walker baseline ---
    core::walker_baseline_designer wd_designer;
    const auto baseline = wd_designer.design(problem);
    std::cout << "\nWalker-delta baseline: " << baseline.shells.size() << " shells, "
              << baseline.total_satellites << " satellites\n";
    if (!baseline.shells.empty()) {
        table_printer shells({"shell", "altitude_km", "inclination_deg", "planes",
                              "sats/plane"});
        const std::size_t show = std::min<std::size_t>(baseline.shells.size(), 6);
        for (std::size_t i = 0; i < show; ++i) {
            const auto& s = baseline.shells[i];
            shells.row({format_number(i + 1), format_number(s.altitude_m / 1000.0, 6),
                        format_number(rad2deg(s.parameters.inclination_rad), 4),
                        format_number(s.parameters.n_planes),
                        format_number(s.parameters.sats_per_plane)});
        }
        shells.print(std::cout);
        if (baseline.shells.size() > show)
            std::cout << "  ... and " << baseline.shells.size() - show
                      << " more shells\n";
    }

    // --- Radiation & sparing ---
    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15);
    core::radiation_eval_options rad;
    rad.step_s = 30.0;
    const auto ss_rad = core::ss_constellation_radiation(design, env, day, rad);
    const auto wd_rad = core::wd_constellation_radiation(baseline, env, day, rad);

    const double ss_rate = lsn::annual_failure_rate(ss_rad.median_electron_fluence);
    const double wd_rate = lsn::annual_failure_rate(wd_rad.median_electron_fluence);
    const auto ss_spares =
        lsn::spares_for_availability(design.sats_per_plane, ss_rate, 0.999, 1);
    const auto wd_spares = lsn::spares_for_availability(
        baseline.shells.empty() ? 20 : baseline.shells[0].parameters.sats_per_plane,
        wd_rate, 0.999, 1);

    std::cout << "\n";
    table_printer cmp({"metric", "SS design", "WD baseline"});
    cmp.row({"satellites", format_number(design.total_satellites),
             format_number(baseline.total_satellites)});
    cmp.row({"median e- fluence (1/cm^2/MeV/day)",
             format_number(ss_rad.median_electron_fluence, 4),
             format_number(wd_rad.median_electron_fluence, 4)});
    cmp.row({"annual failure rate", format_number(ss_rate, 4),
             format_number(wd_rate, 4)});
    cmp.row({"spares/plane for 99.9%", format_number(ss_spares.spares),
             format_number(wd_spares.spares)});
    cmp.print(std::cout);

    std::cout << "\nsatellite saving: "
              << 100.0 * (1.0 - static_cast<double>(design.total_satellites) /
                                    baseline.total_satellites)
              << "%  |  electron-dose saving: "
              << 100.0 * (1.0 - ss_rad.median_electron_fluence /
                                    wd_rad.median_electron_fluence)
              << "%\n";
    return 0;
}
