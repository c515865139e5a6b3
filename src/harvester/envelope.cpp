#include "harvester/envelope.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <type_traits>

namespace ehdse::harvester {

namespace {

constexpr double k_pi = std::numbers::pi;
constexpr double k_half_pi = 0.5 * std::numbers::pi;

// Scratch rows of the lane solver. The first four are the per-lane
// coefficients the caller prepares; r_ce / r_za receive the solution.
enum row : std::size_t {
    r_omega,  ///< excitation angular frequency
    r_re,     ///< k_eff - m omega^2
    r_ma,     ///< m * acceleration amplitude
    r_u,      ///< bridge sink voltage V + 2 Vd
    r_ce,     ///< trial, then converged, electrical damping
    r_za,     ///< steady-state displacement amplitude at r_ce
    r_lo,
    r_hi,
    r_ct,     ///< damping the bridge presents at the trial
    r_e,
    r_vel,
    r_xx,
    r_th1,
    r_cth,
    k_rows_used,
};
static_assert(k_rows_used <= envelope_scratch::k_rows);

enum mask_row : std::size_t {
    m_blocked,
    m_refine,
    m_converged,
    k_masks_used,
};
static_assert(k_masks_used <= envelope_scratch::k_masks);

// Scratch rows of one lane, local to one solve. The width-1 paths (a
// one-lane batch RHS, solve_envelope) use it with the compile-time width width_one:
// every lane loop then runs once with constant indices, and the compiler
// keeps the rows in registers instead of storing each one to memory and
// loading it back in the next loop.
struct one_lane_scratch {
    double rows[k_rows_used];
    std::uint8_t masks[k_masks_used];
    double* row(std::size_t k) noexcept { return &rows[k]; }
    std::uint8_t* mask(std::size_t k) noexcept { return &masks[k]; }
};
using width_one = std::integral_constant<std::size_t, 1>;

// Minimax-quality polynomial for asin on [0, 1]: degree-15 Chebyshev-node
// fit of g(z) = asin(sqrt(z)) / sqrt(z), combined with the standard range
// reduction
//     x <= 0.5 : asin(x) = x * P(x^2)
//     x  > 0.5 : asin(x) = pi/2 - 2 * sqrt(z) * P(z),  z = (1 - x) / 2
// Max abs error 3.3e-16 over [0, 1) — at libm rounding level.
constexpr double k_asin_c[16] = {
    0.999999999999999999892,   0.166666666666666696405,
    0.0749999999999929945523,  0.0446428571436258050417,
    0.0303819443995999728947,  0.022372160664339752716,
    0.0173527281512837325891,  0.0139654279848651728254,
    0.0115449458992990427777,  0.00982171026194061776089,
    0.0079925162814942219587,  0.00929049937150757007781,
    -0.00077758985480906203174, 0.024269122565511237245,
    -0.0254272641358987083118, 0.0311710800182602128524,
};

// Horner form, fully unrolled: a `for` over the coefficients is control
// flow the vectoriser refuses, so spell the recurrence out.
inline double asin_poly_eval(double z) {
    double p = k_asin_c[15];
    p = p * z + k_asin_c[14];
    p = p * z + k_asin_c[13];
    p = p * z + k_asin_c[12];
    p = p * z + k_asin_c[11];
    p = p * z + k_asin_c[10];
    p = p * z + k_asin_c[9];
    p = p * z + k_asin_c[8];
    p = p * z + k_asin_c[7];
    p = p * z + k_asin_c[6];
    p = p * z + k_asin_c[5];
    p = p * z + k_asin_c[4];
    p = p * z + k_asin_c[3];
    p = p * z + k_asin_c[2];
    p = p * z + k_asin_c[1];
    p = p * z + k_asin_c[0];
    return p;
}

// `c ? a : b` with bit masks instead of a branch; the value is exact.
// The bisection step uses it, so at width 1 each trial waits for the one
// before. With a branch the CPU guesses the bracket side and runs ahead
// into the next trial. That is about 2x faster on an idle core, but on a
// shared virtual machine its cost swung by 20-40% with the host's other
// load (most likely a sibling hardware thread taking half of the
// out-of-order window), while the serial chain held steady.
inline double blend(bool c, double a, double b) {
    const std::uint64_t m = -static_cast<std::uint64_t>(c);
    return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & m) |
                                 (std::bit_cast<std::uint64_t>(b) & ~m));
}

// The hot lane loops live in free functions whose pointer parameters are
// __restrict__: GCC only assigns no-alias cliques to restrict *parameters*
// (never to restrict locals), and without them these loops reference more
// arrays than the vectoriser's runtime alias-check budget covers and
// silently stay scalar. All call sites pass distinct scratch rows.

// Mechanics: linear response at the trial damping (displacement limiter
// as a value select — no control flow in the loop).
inline void mechanics_lanes(std::size_t B, double c_mech, double phi,
                            double xmax, const double* __restrict__ ce,
                            const double* __restrict__ omega,
                            const double* __restrict__ re,
                            const double* __restrict__ ma,
                            const double* __restrict__ u,
                            double* __restrict__ za,
                            double* __restrict__ e,
                            double* __restrict__ vel,
                            double* __restrict__ xxv) {
    for (std::size_t l = 0; l < B; ++l) {
        const double im = (c_mech + ce[l]) * omega[l];
        const double denom = std::sqrt(re[l] * re[l] + im * im);
        double amp = ma[l] / denom;
        amp = std::min(amp, xmax);
        za[l] = amp;
        const double v = omega[l] * amp;
        vel[l] = v;
        const double ee = phi * v;
        e[l] = ee;
        // Conduction-angle argument u/e, clamped into the asin domain; a
        // blocked lane (e <= u) lands at 1 => theta1 = pi/2, zero span.
        xxv[l] = std::min(u[l] / ee, 1.0);
    }
}

// theta1 = asin(x) via the range-reduced polynomial; cos(theta1) via
// the identity cos(asin x) = sqrt(1 - x^2). Both branches are computed
// unconditionally and selected, keeping the loop vectorisable.
inline void conduction_angle_lanes(std::size_t B,
                                   const double* __restrict__ xxv,
                                   double* __restrict__ th1,
                                   double* __restrict__ cth) {
    for (std::size_t l = 0; l < B; ++l) {
        const double x = xxv[l];
        const double z_lo = x * x;
        const double z_hi = 0.5 * (1.0 - x);
        const bool upper = x > 0.5;
        const double z = upper ? z_hi : z_lo;
        const double p = asin_poly_eval(z);
        const double sq = std::sqrt(z);
        const double s = upper ? sq : x;
        const double r0 = s * p;
        th1[l] = upper ? k_half_pi - 2.0 * r0 : r0;
        cth[l] = std::sqrt(1.0 - x * x);
    }
}

// Averaged bridge power and the equivalent damping it presents:
// T(c_e) = 2 P_mech / vel^2, with sin(2 theta1) = 2 x cos(theta1).
inline void bridge_damping_lanes(std::size_t B, double inv_pir,
                                 const double* __restrict__ e,
                                 const double* __restrict__ u,
                                 const double* __restrict__ vel,
                                 const double* __restrict__ xxv,
                                 const double* __restrict__ th1,
                                 const double* __restrict__ cth,
                                 double* __restrict__ c_target) {
    for (std::size_t l = 0; l < B; ++l) {
        const double ee = e[l];
        const double span = k_pi - 2.0 * th1[l];
        const double s2 = 2.0 * xxv[l] * cth[l];
        const double p_mech =
            (ee * ee * (0.5 * span + 0.5 * s2) - 2.0 * u[l] * ee * cth[l]) *
            inv_pir;
        const double v = vel[l];
        const double ct = 2.0 * p_mech / (v * v);
        // Bitwise & keeps the two comparisons branch-free (&& would
        // reintroduce control flow and kill vectorisation).
        const bool conducting = (ee > u[l]) & (v > 0.0);
        c_target[l] = conducting ? ct : 0.0;
    }
}

// Averaged bridge current into the store at emf amplitude e.
inline void bridge_current_lanes(std::size_t B, double inv_pir,
                                 const double* __restrict__ e,
                                 const double* __restrict__ u,
                                 const double* __restrict__ th1,
                                 const double* __restrict__ cth,
                                 double* __restrict__ i_avg) {
    for (std::size_t l = 0; l < B; ++l) {
        const double ee = e[l];
        const double span = k_pi - 2.0 * th1[l];
        const double i = (2.0 * ee * cth[l] - u[l] * span) * inv_pir;
        i_avg[l] = ee > u[l] ? i : 0.0;
    }
}

// The solver steps below take the width either as std::size_t (the
// caller's envelope_scratch) or as width_one (one_lane_scratch), and are
// always inlined: the width-1 rows only stay in registers when every use
// of them is visible in one function.

/// One lockstep trial of the damping fixed point: given per-lane trial
/// damping ce[], fill c_target[] (the damping the bridge presents there)
/// and za[] (the steady-state displacement amplitude).
template <class Width, class Scratch>
[[gnu::always_inline]] inline void eval_damping(const microgenerator& gen,
                                                Width B, Scratch& s,
                                                const double* ce,
                                                double* c_target, double* za) {
    const auto& gp = gen.params();
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);
    mechanics_lanes(B, gen.mech_damping(), gp.coupling_v_per_ms,
                    gp.max_displacement_m, ce, s.row(r_omega), s.row(r_re),
                    s.row(r_ma), s.row(r_u), za, s.row(r_e), s.row(r_vel),
                    s.row(r_xx));
    conduction_angle_lanes(B, s.row(r_xx), s.row(r_th1), s.row(r_cth));
    bridge_damping_lanes(B, inv_pir, s.row(r_e), s.row(r_u), s.row(r_vel),
                         s.row(r_xx), s.row(r_th1), s.row(r_cth), c_target);
}

/// The diode-bridge damping root-solve, lockstep over B lanes: per lane
/// the self-consistent electrical damping (row r_ce, 0 for a blocked
/// bridge), the steady-state amplitude there (r_za) and whether the
/// bracket closed (mask m_converged). Reads rows r_omega..r_u. Returns
/// the number of trials evaluated.
template <class Width, class Scratch>
[[gnu::always_inline]] inline int solve_damping(const microgenerator& gen,
                                                Width B,
                                                const envelope_options& options,
                                                Scratch& s) {
    const auto& gp = gen.params();
    const double c_mech = gen.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double tol = options.tolerance * c_mech;
    // Root bracket [0, c_hi]. The bridge can never present more equivalent
    // damping than a short-circuited coil, phi^2 / R, so that (plus margin)
    // bounds the root from above.
    const double c_hi_limit = phi * phi / gp.coil_resistance_ohm + c_mech;

    double* ce = s.row(r_ce);
    double* za = s.row(r_za);
    double* ct = s.row(r_ct);
    double* lo = s.row(r_lo);
    double* hi = s.row(r_hi);
    std::uint8_t* blocked = s.mask(m_blocked);
    std::uint8_t* refine = s.mask(m_refine);
    std::uint8_t* converged = s.mask(m_converged);

    // Trial at c_e = 0: a bridge blocked (or negligibly loaded) even at
    // the open amplitude keeps the open-circuit steady state.
    std::fill_n(ce, B, 0.0);
    eval_damping(gen, B, s, ce, ct, za);
    int trials = 1;
    bool all_blocked = true;
    for (std::size_t l = 0; l < B; ++l) {
        blocked[l] = ct[l] <= tol ? 1 : 0;
        all_blocked = all_blocked && blocked[l];
    }
    if (all_blocked) {
        std::fill_n(converged, B, std::uint8_t{1});
        return trials;
    }

    // T(hi) - hi < 0 is guaranteed by the physical bound, but the
    // displacement limiter can distort T: expand defensively (masked,
    // <= 8 doublings).
    for (std::size_t l = 0; l < B; ++l) {
        lo[l] = 0.0;
        hi[l] = c_hi_limit;
    }
    eval_damping(gen, B, s, hi, ct, za);
    ++trials;
    for (int expand = 0; expand < 8; ++expand) {
        bool any = false;
        for (std::size_t l = 0; l < B; ++l) {
            const bool need = !blocked[l] && ct[l] > hi[l];
            refine[l] = need ? 1 : 0;
            any = any || need;
        }
        if (!any) break;
        for (std::size_t l = 0; l < B; ++l)
            if (refine[l]) hi[l] *= 2.0;
        eval_damping(gen, B, s, hi, ct, za);
        ++trials;
    }

    // Masked bisection: a converged lane's bracket stops moving, so every
    // lane lands exactly where it would alone.
    for (int it = 0; it < options.max_iterations; ++it) {
        bool any = false;
        for (std::size_t l = 0; l < B; ++l) {
            const bool r = !blocked[l] && (hi[l] - lo[l]) > tol;
            refine[l] = r ? 1 : 0;
            any = any || r;
        }
        if (!any) break;
        for (std::size_t l = 0; l < B; ++l) ce[l] = 0.5 * (lo[l] + hi[l]);
        eval_damping(gen, B, s, ce, ct, za);
        ++trials;
        for (std::size_t l = 0; l < B; ++l) {
            const bool r = refine[l] != 0;
            const bool up = ct[l] > ce[l];
            lo[l] = blend(r && up, ce[l], lo[l]);
            hi[l] = blend(r && !up, ce[l], hi[l]);
        }
    }

    // Final evaluation at the converged damping gives the steady-state
    // amplitude the envelope relaxes towards.
    for (std::size_t l = 0; l < B; ++l) {
        ce[l] = blocked[l] ? 0.0 : 0.5 * (lo[l] + hi[l]);
        converged[l] = (blocked[l] || (hi[l] - lo[l]) <= tol) ? 1 : 0;
    }
    eval_damping(gen, B, s, ce, ct, za);
    return trials + 1;
}

/// Per-lane coefficients the solver reads.
template <class Width, class Scratch>
[[gnu::always_inline]] inline void prepare_lanes(
    const microgenerator& gen, Width B, const double* freq_hz,
    const double* accel_amp_ms2, const double* store_v, const int* position,
    const power::rectifier_params& rect, Scratch& s) {
    const double m = gen.params().mass_kg;
    const double two_vd = 2.0 * rect.diode_drop_v;
    double* omega = s.row(r_omega);
    double* re = s.row(r_re);
    double* ma = s.row(r_ma);
    double* u = s.row(r_u);
    for (std::size_t l = 0; l < B; ++l) {
        const double w = 2.0 * k_pi * freq_hz[l];
        omega[l] = w;
        re[l] = gen.effective_stiffness(position[l]) - m * w * w;
        ma[l] = m * accel_amp_ms2[l];
        u[l] = store_v[l] + two_vd;
    }
}

}  // namespace

envelope_point solve_envelope(const microgenerator& gen, int position,
                              double freq_hz, double accel_amp_ms2,
                              double store_v,
                              const power::rectifier_params& rect,
                              const envelope_options& options) {
    if (freq_hz <= 0.0)
        throw std::invalid_argument("solve_envelope: frequency must be > 0");
    if (accel_amp_ms2 < 0.0)
        throw std::invalid_argument("solve_envelope: negative acceleration");

    one_lane_scratch s;
    prepare_lanes(gen, width_one{}, &freq_hz, &accel_amp_ms2, &store_v,
                  &position, rect, s);
    envelope_point pt;
    pt.iterations = solve_damping(gen, width_one{}, options, s);
    pt.c_electrical = s.row(r_ce)[0];
    pt.converged = s.mask(m_converged)[0] != 0;
    pt.mech = gen.response(s.row(r_omega)[0], accel_amp_ms2, position,
                           pt.c_electrical);
    pt.elec = power::bridge_average(pt.mech.emf_amp_v, store_v,
                                    gen.params().coil_resistance_ohm, rect);
    return pt;
}

namespace {

/// Body of envelope_lanes(), over the rows of `s`.
template <class Width, class Scratch>
void lanes_of(const microgenerator& gen, Width B,
              const envelope_lane_inputs& in, conditioning_kind conditioning,
              double efficiency, const power::rectifier_params& rect,
              Scratch& s, const envelope_lane_outputs& out) {
    const auto& gp = gen.params();
    const double m = gp.mass_kg;
    const double c_mech = gen.mech_damping();
    const double* z = in.z_env.data();
    const double* v = in.store_v.data();
    double* dz = out.amplitude_rate.data();
    double* ich = out.charge_current_a.data();
    prepare_lanes(gen, B, in.freq_hz.data(), in.accel_amp_ms2.data(), v,
                  in.position.data(), rect, s);
    const double* omega = s.row(r_omega);
    const double* u = s.row(r_u);

    if (conditioning == conditioning_kind::diode_bridge) {
        solve_damping(gen, B, envelope_options{}, s);
        const double* ce = s.row(r_ce);
        const double* za = s.row(r_za);
        // Amplitude envelope relaxes towards the steady state.
        for (std::size_t l = 0; l < B; ++l) {
            const double tau = 2.0 * m / (c_mech + ce[l]);
            dz[l] = (za[l] - z[l]) / tau;
        }

        // Charging from the instantaneous envelope amplitude (not the
        // target): one more bridge evaluation at emf = phi * omega * z.
        double* e = s.row(r_e);
        double* xx = s.row(r_xx);
        const double phi = gp.coupling_v_per_ms;
        for (std::size_t l = 0; l < B; ++l) {
            e[l] = phi * omega[l] * z[l];
            xx[l] = std::min(u[l] / e[l], 1.0);
        }
        conduction_angle_lanes(B, xx, s.row(r_th1), s.row(r_cth));
        bridge_current_lanes(B, 1.0 / (k_pi * gp.coil_resistance_ohm), e, u,
                             s.row(r_th1), s.row(r_cth), ich);
    } else {
        // MPPT front-end: the converter holds the coil at the matched load
        // (c_e = c_mech) regardless of the store voltage, and delivers the
        // extracted mechanical power at the conversion efficiency.
        const double c_match = c_mech;
        const double c_total = c_mech + c_match;
        const double tau = 2.0 * m / c_total;
        const double xmax = gp.max_displacement_m;
        const double* re = s.row(r_re);
        const double* ma = s.row(r_ma);
        for (std::size_t l = 0; l < B; ++l) {
            const double im = c_total * omega[l];
            const double denom = std::sqrt(re[l] * re[l] + im * im);
            double amp = ma[l] / denom;
            amp = std::min(amp, xmax);
            dz[l] = (amp - z[l]) / tau;
            const double vel_env = omega[l] * z[l];
            const double p_extracted = 0.5 * c_match * vel_env * vel_env;
            const double i = efficiency * p_extracted / v[l];
            ich[l] = v[l] > 0.05 ? i : 0.0;
        }
    }
}

}  // namespace

void envelope_lanes(const microgenerator& gen, const envelope_lane_inputs& in,
                    conditioning_kind conditioning, double efficiency,
                    const power::rectifier_params& rect,
                    envelope_scratch& s, const envelope_lane_outputs& out) {
    const std::size_t B = in.lanes();
    if (s.lanes() < B)
        throw std::invalid_argument(
            "envelope_lanes: scratch narrower than the input");
    if (B == 1) {  // one lane: rows in registers, `s` unused
        one_lane_scratch one;
        lanes_of(gen, width_one{}, in, conditioning, efficiency, rect, one,
                 out);
    } else {
        lanes_of(gen, B, in, conditioning, efficiency, rect, s, out);
    }
}

}  // namespace ehdse::harvester
