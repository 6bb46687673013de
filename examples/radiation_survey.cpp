// Radiation survey tool: daily trapped-particle fluence for circular orbits
// across altitude and inclination, with the failure-rate and sparing
// implications (paper §3.2).
//
// Usage: radiation_survey [--altitude-km=560]
//
// A malformed or unusable altitude (`--altitude-km=-5`) stops the run before
// any work, with the reason on stderr and exit status 2.
#include <cmath>
#include <iostream>

#include "constellation/sun_sync.h"
#include "lsn/failures.h"
#include "radiation/fluence.h"
#include "radiation/solar_cycle.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/expects.h"
#include "util/table.h"

using namespace ssplane;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    double altitude_m = 0.0;
    try {
        altitude_m = args.get_double("altitude-km", 560.0) * 1000.0;
        expects(std::isfinite(altitude_m) && altitude_m > 0.0,
                "--altitude-km must be finite and positive");
    } catch (const contract_violation& e) {
        std::cerr << "radiation_survey: " << e.what() << "\n";
        return 2;
    }

    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15); // active period

    std::cout << "=== Radiation survey at " << altitude_m / 1000.0
              << " km (solar cycle 24 active period) ===\n"
              << "activity index: " << radiation::solar_activity(day) << "\n\n";

    table_printer table({"inclination_deg", "electrons_1/cm2/MeV/day",
                         "protons_1/cm2/MeV/day", "annual_fail_rate",
                         "spares/plane@99.9%"});
    for (double inc : {30.0, 45.0, 53.0, 63.4, 65.0, 70.0, 80.0, 90.0, 97.6}) {
        const auto f =
            radiation::daily_fluence(env, altitude_m, deg2rad(inc), day, 0.0, 30.0);
        const double rate = lsn::annual_failure_rate(f.electrons_cm2_mev);
        const auto spares = lsn::spares_for_availability(25, rate, 0.999, 1, 128);
        table.row({format_number(inc, 4), format_number(f.electrons_cm2_mev, 4),
                   format_number(f.protons_cm2_mev, 4), format_number(rate, 3),
                   format_number(spares.spares)});
    }
    table.print(std::cout);

    std::cout << "\nAltitude sweep at the sun-synchronous inclination:\n";
    table_printer alt_table({"altitude_km", "ss_inclination_deg",
                             "electrons_1/cm2/MeV/day"});
    for (double h_km : {400.0, 560.0, 800.0, 1200.0, 1600.0}) {
        const double h = h_km * 1000.0;
        const auto inc = constellation::sun_synchronous_inclination_rad(h);
        if (!inc) continue;
        const auto f = radiation::daily_fluence(env, h, *inc, day, 0.0, 30.0);
        alt_table.row({format_number(h_km, 5), format_number(rad2deg(*inc), 5),
                       format_number(f.electrons_cm2_mev, 4)});
    }
    alt_table.print(std::cout);
    return 0;
}
