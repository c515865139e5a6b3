// Checks and layer probes shared by the workloads: the physical bounds
// every evaluation must satisfy, the result digest, the harvester and
// batch-lane timing probes, the scalar-versus-batch divergence probe, and
// the per-layer numbers derived from an obs metrics snapshot.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "dse/system_evaluator.hpp"
#include "testkit/prng.hpp"

namespace perfbench {

namespace obs = ehdse::obs;
namespace dse = ehdse::dse;
namespace spec = ehdse::spec;

/// sim_ok, a finite store voltage inside [0, rating], a transmission
/// count bounded by the events and by one burst per 4.5 ms, and energy
/// out of the store no larger than the energy put in plus the initial
/// charge.
void check_result(report& rep, const dse::evaluation_result& r,
                  const spec::scenario& scn, const std::string& what);

/// The integer responses of one evaluation, in a fixed order.
void add_to_digest(digest& d, const dse::evaluation_result& r);

/// Mean seconds of one harvester_model::envelope_dynamics call per
/// backend and of one transient RHS call (electromagnetic), at operating
/// points drawn from `scenarios`.
void harvester_probe(report& rep, const std::vector<spec::scenario>& scenarios,
                     ehdse::testkit::prng& rng);

/// Seconds per lane of one evaluate_batch call per backend, on `configs`
/// against `scn` (envelope fidelity).
void batch_lane_probe(report& rep, const spec::scenario& scn,
                      const std::vector<spec::system_config>& configs);

/// Largest |final_voltage(evaluate) - final_voltage(evaluate_batch)| over
/// `configs`; a transmission count that differs between the two paths is
/// a failed check. Prints the difference on its own line.
double scalar_batch_divergence(report& rep, const dse::system_evaluator& eval,
                               const std::vector<spec::system_config>& configs,
                               const spec::evaluation_options& options,
                               const std::string& what);

/// dse.batch.*, sim.batch.lane_occupancy and exec.pool.* from a metrics
/// registry snapshot (`{counters, gauges, histograms}`); `wall_s` is the
/// window the pool was measured over.
void registry_layers(report& rep, const obs::json_value& snapshot,
                     double wall_s, bool has_pool);

/// Report the svc.* layer metrics absent for an in-process workload.
void absent_svc_layers(report& rep, const std::string& why);

/// Draw `n` points stratified over the coded design box (one point per
/// stratum on each axis, Latin-hypercube style) and decode them.
std::vector<spec::system_config> stratified_configs(std::size_t n,
                                                    ehdse::testkit::prng& rng);

/// A k x k x k grid over the coded design box with one seed-jittered
/// point per cell, so every seed covers the box the same way.
std::vector<spec::system_config> grid_configs(std::size_t k, ehdse::testkit::prng& rng);

/// Counter / histogram field of a snapshot, 0 when absent.
double snapshot_counter(const obs::json_value& snap, const char* name);
double snapshot_hist(const obs::json_value& snap, const char* name,
                     const char* field);

}  // namespace perfbench
