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

use sbst_gates::{FaultSimulator, Stimulus};

use super::search::{Scratch, SearchOutcome, SearchResult, Searcher};
use super::{AtpgFault, AtpgOutcome, AtpgResult};

/// Applies one round's `results` (parallel to `round`, indices into
/// `faults`) to `run`. A fault model that needs an initialization pattern
/// gets it searched here, on `scratch`, in canonical order — the search is
/// charged to worker 0.
pub(crate) fn apply_round<F: AtpgFault>(
    sim: &FaultSimulator<'_>,
    searcher: &Searcher<'_>,
    scratch: &mut Scratch,
    faults: &[F],
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
                let mut sequence = Vec::with_capacity(2);
                if let Some(init) = faults[target].initialization_target() {
                    let init_res = searcher.search(&init, scratch);
                    run.thread_stats[0].searches += 1;
                    run.thread_stats[0].backtracks += init_res.backtracks;
                    run.stats.podem_backtracks += init_res.backtracks;
                    match init_res.outcome {
                        SearchOutcome::Test(init_pattern) => sequence.push(init_pattern),
                        SearchOutcome::Redundant | SearchOutcome::Aborted => {
                            // The capture half is testable, so the fault is
                            // not provably redundant — only the
                            // (conservative) initialization search gave up.
                            run.outcomes[target] = AtpgOutcome::Aborted;
                            run.stats.aborted += 1;
                            continue;
                        }
                    }
                }
                sequence.push(pattern);
                // Drop other remaining faults detected by this sequence.
                let remaining: Vec<usize> = (0..faults.len())
                    .filter(|&i| !run.outcomes[i].is_detected())
                    .collect();
                let remaining_faults: Vec<F> = remaining.iter().map(|&i| faults[i]).collect();
                let mut stim = Stimulus::new();
                for p in &sequence {
                    stim.push_pattern(p);
                }
                let res = F::grade(sim, &remaining_faults, &stim);
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
                run.patterns.extend(sequence);
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
