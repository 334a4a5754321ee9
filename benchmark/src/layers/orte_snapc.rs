//! `orte::snapc`: the simulated cost the coordinator charges a gather.

use cr_core::request::CheckpointOutcome;

/// The benchmark's only read of a stats struct: what the gather phase
/// cost on the simulated clock, in ms. Kept in one place so that
/// reshaping the stats structs touches one line here.
pub fn simulated_gather_ms(outcome: &CheckpointOutcome) -> f64 {
    outcome.stats.sim_ns as f64 / 1e6
}
