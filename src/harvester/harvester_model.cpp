#include "harvester/harvester_model.hpp"

#include <stdexcept>

#include "harvester/electromagnetic.hpp"
#include "harvester/electrostatic.hpp"

namespace ehdse::harvester {

envelope_scratch::envelope_scratch(std::size_t lanes)
    : lanes_(lanes),
      rows_(lanes == 1 ? 0 : k_rows * lanes),
      masks_(lanes == 1 ? 0 : k_masks * lanes) {}

envelope_rates harvester_model::envelope_dynamics(
    double freq_hz, double accel_amp_ms2, int position, double store_v,
    double z_env, conditioning_kind conditioning, double efficiency,
    const power::rectifier_params& rect) const {
    envelope_scratch scratch(1);
    envelope_rates out;
    envelope_lanes({{&freq_hz, 1}, {&accel_amp_ms2, 1}, {&store_v, 1},
                    {&z_env, 1}, {&position, 1}},
                   conditioning, efficiency, rect, scratch,
                   {{&out.amplitude_rate, 1}, {&out.charge_current_a, 1}});
    return out;
}

const std::vector<harvester_info>& harvester_registry() {
    static const std::vector<harvester_info> k_registry = {
        {"electromagnetic",
         "tunable electromagnetic cantilever, magnetic-spring tuning "
         "(paper default)"},
        {"electrostatic",
         "electrostatic harvester, auto-adaptive charge-pump conditioning, "
         "bias-voltage tuning"},
    };
    return k_registry;
}

bool is_known_harvester(std::string_view name) noexcept {
    for (const harvester_info& info : harvester_registry())
        if (info.name == name) return true;
    return false;
}

std::string harvester_names() {
    std::string out;
    for (const harvester_info& info : harvester_registry()) {
        if (!out.empty()) out += ", ";
        out += info.name;
    }
    return out;
}

std::unique_ptr<harvester_model> make_harvester(std::string_view name) {
    if (name == "electromagnetic")
        return std::make_unique<electromagnetic_harvester>();
    if (name == "electrostatic")
        return std::make_unique<electrostatic_harvester>();
    throw std::invalid_argument("make_harvester: unknown harvester '" +
                                std::string(name) + "' (valid: " +
                                harvester_names() + ")");
}

}  // namespace ehdse::harvester
