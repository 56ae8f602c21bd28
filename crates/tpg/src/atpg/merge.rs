//! Sequential canonical-order reduction of one round of search results.
//!
//! The reducer walks a round's results in the canonical fault order they
//! were scheduled in. A result whose target has been covered by a pattern
//! accepted earlier (this round or a previous one) is *discarded* — the
//! speculative search is charged to [`AtpgStats::podem_discarded`] and
//! contributes nothing else. Applied results update outcomes exactly as a
//! sequential PODEM loop would: accepted tests re-run drop simulation over
//! the still-undetected faults on the run's shared simulator.
//!
//! [`AtpgStats::podem_discarded`]: super::AtpgStats::podem_discarded

use sbst_gates::{Fault, FaultSimulator, Stimulus};

use super::search::{SearchOutcome, SearchResult};
use super::{AtpgOutcome, AtpgResult};

/// Applies one round's `results` (parallel to `round`, indices into
/// `faults`) to `run`.
pub(crate) fn apply_round(
    sim: &FaultSimulator<'_>,
    faults: &[Fault],
    round: &[usize],
    results: Vec<SearchResult>,
    run: &mut AtpgResult,
) {
    debug_assert_eq!(round.len(), results.len());
    for (&target, result) in round.iter().zip(results) {
        if run.outcomes[target].is_detected() {
            // An earlier accepted pattern covered this target while its
            // search was (speculatively) running.
            run.stats.podem_discarded += 1;
            continue;
        }
        run.stats.podem_targets += 1;
        run.stats.podem_backtracks += result.backtracks;
        match result.outcome {
            SearchOutcome::Test(pattern) => {
                // Drop other remaining faults detected by this pattern.
                let remaining: Vec<usize> = (0..faults.len())
                    .filter(|&i| !run.outcomes[i].is_detected())
                    .collect();
                let remaining_faults: Vec<Fault> = remaining.iter().map(|&i| faults[i]).collect();
                let mut stim = Stimulus::new();
                stim.push_pattern(&pattern);
                let res = sim.simulate(&remaining_faults, &stim);
                run.drop_sim_tape_compilations += res.stats.tape_compilations;
                for (k, &i) in remaining.iter().enumerate() {
                    if res.detected[k] {
                        run.outcomes[i] = AtpgOutcome::DetectedByPodem;
                    }
                }
                debug_assert!(
                    run.outcomes[target].is_detected(),
                    "a PODEM test must detect its target"
                );
                run.patterns.push(pattern);
                run.stats.podem_tests += 1;
            }
            SearchOutcome::Redundant => {
                run.outcomes[target] = AtpgOutcome::Redundant;
                run.stats.redundant += 1;
            }
            SearchOutcome::Aborted => {
                run.outcomes[target] = AtpgOutcome::Aborted;
                run.stats.aborted += 1;
            }
        }
    }
}
