//! One PODEM search per target fault, on an incrementally maintained
//! three-valued dual-rail state.
//!
//! A [`Searcher`] is compiled once per [`super::Atpg::run`] and shared
//! immutably by every worker; each search is a pure function of the
//! (netlist, constraints, backtrack limit, rng seed, fault) tuple — the
//! X-fill bits come from a per-target RNG stream derived with
//! [`super::fault_stream_seed`], never from shared sequential state — so
//! results are independent of target visitation order and thread count.
//!
//! Per-decision work is kept off the whole-netlist path three ways:
//!
//! * **Incremental evaluation.** [`Searcher::new`] evaluates the
//!   fault-free values under the input constraints once per run. Each
//!   search copies that state and injects its fault by levelized event
//!   propagation from the fault site ([`Searcher::seed`]); after that,
//!   assigning a primary input re-evaluates only its fanout cone, and
//!   every overwritten value is recorded on a trail so a backtrack
//!   restores the exact prior state without re-evaluating anything. The
//!   state after seeding and after any sequence of assignments is
//!   identical to a from-scratch
//!   [`eval_dual_reference`](sbst_gates::eval_dual_reference) (debug builds
//!   assert this after seeding and every iteration).
//! * **Cone-restricted bookkeeping.** A fault effect only ever lives
//!   inside the static fanout cone of the fault site, so the D-frontier
//!   scan and the X-path reachability pass walk a per-search cone gate
//!   list instead of the whole topological order.
//! * **X-path pruning.** Branches where no effect can reach an output
//!   through still-open nets are abandoned as *sound* failures (see
//!   [`Searcher::compute_reach`]).
//!
//! Before its first decision, every search tries a **root proof**
//! ([`Searcher::root_proof`]): on the constraint-seeded values it checks
//! whether the activation net is already held at the stuck value, and
//! runs the X-path pass once with one extra rule — a `Mux2` whose select
//! is definite and equal on both rails passes an effect only from its
//! selected data input. A fault that fails either check is `Redundant`
//! with 0 backtracks. This is what proves constraint-blocked faults
//! untestable: an op-pinned mux keeps an open output (its selected input
//! is still X), so without the mux rule the per-decision pass sees a
//! route from the unselected input and the search runs to its backtrack
//! limit. The mux rule stays out of the per-decision pass, so the search
//! below the root (and every test it finds) is unaffected.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sbst_gates::{
    eval3, eval_dual_gate, Dual3, Fault, FaultSite, Gate, GateId, GateKind, NetId, Netlist, T3,
};

use super::fault_stream_seed;

/// Outcome of one PODEM search.
#[derive(Debug)]
pub(crate) enum SearchOutcome {
    /// A test pattern (full input vector, X-filled from the per-target
    /// stream).
    Test(Vec<bool>),
    /// The root proof held, or the search space was exhausted without
    /// heuristic cutoffs: the fault is untestable under the constraints.
    Redundant,
    /// The search was abandoned (backtrack limit or heuristic dead end).
    Aborted,
}

/// One search's result with its effort accounting.
#[derive(Debug)]
pub(crate) struct SearchResult {
    pub outcome: SearchOutcome,
    pub backtracks: u64,
}

/// Per-worker scratch state reused across searches: the incrementally
/// maintained net values, the undo trail, the levelized event queue and
/// the per-fault cone bookkeeping. Allocated once, never shared.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Dual-rail value per net, exact for the current assignment.
    values: Vec<Dual3>,
    /// X-path reachability per net (only cone nets are ever written/read).
    reach: Vec<bool>,
    /// Undo log: (net index, value it held before the overwrite).
    trail: Vec<(u32, Dual3)>,
    /// Trail length at each decision, newest last.
    frames: Vec<usize>,
    /// Event queue: one bucket of pending gates per topological level.
    buckets: Vec<Vec<GateId>>,
    /// Gate is already enqueued (dedupe for `buckets`).
    queued: Vec<bool>,
    /// Fanout cone of the current fault site, topologically sorted.
    cone_gates: Vec<GateId>,
    /// Gate is in `cone_gates` (dedupe for the cone walk).
    cone_mark: Vec<bool>,
    /// Nets whose `reach` entry must be reset each iteration: the cone
    /// gates' pins plus the fault site and the primary outputs.
    clear_nets: Vec<u32>,
    /// `eval_dual_gate` input staging.
    good_in: Vec<T3>,
    faulty_in: Vec<T3>,
}

impl Scratch {
    fn prepare(&mut self, netlist: &Netlist) {
        if self.reach.len() < netlist.net_count() {
            self.reach.resize(netlist.net_count(), false);
        }
        if self.queued.len() < netlist.gate_count() {
            self.queued.resize(netlist.gate_count(), false);
        }
        if self.cone_mark.len() < netlist.gate_count() {
            self.cone_mark.resize(netlist.gate_count(), false);
        }
        if self.buckets.len() < netlist.level_count() {
            self.buckets.resize(netlist.level_count(), Vec::new());
        }
        self.trail.clear();
        self.frames.clear();
    }
}

/// The data pin (1 or 2) a `Mux2` passes for good, if its select is
/// definite and equal on both rails; `None` for any other gate.
fn fixed_select(values: &[Dual3], gate: &Gate) -> Option<usize> {
    if gate.kind != GateKind::Mux2 {
        return None;
    }
    match values[gate.inputs[0].index()] {
        Dual3 {
            good: Some(g),
            faulty: Some(f),
        } if g == f => Some(1 + g as usize),
        _ => None,
    }
}

/// Queues `gid` for re-evaluation at its topological level, once.
fn enqueue(netlist: &Netlist, queued: &mut [bool], buckets: &mut [Vec<GateId>], gid: GateId) {
    if !queued[gid.index()] {
        queued[gid.index()] = true;
        buckets[netlist.gate_level(gid) as usize].push(gid);
    }
}

/// Shared, immutable PODEM search engine for one run.
#[derive(Debug)]
pub(crate) struct Searcher<'a> {
    netlist: &'a Netlist,
    /// Fault-free value of every net under the input constraints alone
    /// (both rails equal): the state every search is seeded from.
    base: Vec<Dual3>,
    /// Position of each gate in `comb_order`, for sorting cone gates.
    order_pos: Vec<u32>,
    pi_template: Vec<T3>,
    backtrack_limit: usize,
    rng_seed: u64,
}

#[derive(Debug)]
enum FrontierObjective {
    Objective(NetId, bool),
    NoFrontier,
    NoXInput,
}

impl<'a> Searcher<'a> {
    pub(crate) fn new(
        netlist: &'a Netlist,
        pi_template: Vec<T3>,
        backtrack_limit: usize,
        rng_seed: u64,
    ) -> Self {
        let mut order_pos = vec![u32::MAX; netlist.gate_count()];
        for (pos, &gid) in netlist.comb_order().iter().enumerate() {
            order_pos[gid.index()] = pos as u32;
        }
        let mut base = vec![Dual3::default(); netlist.net_count()];
        for (&net, &v) in netlist.inputs().iter().zip(&pi_template) {
            base[net.index()] = Dual3 { good: v, faulty: v };
        }
        let mut good_in = Vec::new();
        for &gid in netlist.comb_order() {
            let gate = netlist.gate(gid);
            good_in.clear();
            good_in.extend(gate.inputs.iter().map(|i| base[i.index()].good));
            let v = eval3(gate.kind, &good_in);
            base[gate.output.index()] = Dual3 { good: v, faulty: v };
        }
        Searcher {
            netlist,
            base,
            order_pos,
            pi_template,
            backtrack_limit,
            rng_seed,
        }
    }

    /// Collects the static fanout cone of the fault site: every gate an
    /// effect could ever pass through, topologically sorted, plus the net
    /// set whose reachability entries the X-path pass resets.
    fn build_cone(&self, fault: &Fault, scr: &mut Scratch) {
        let nl = self.netlist;
        for &g in &scr.cone_gates {
            scr.cone_mark[g.index()] = false;
        }
        scr.cone_gates.clear();
        scr.clear_nets.clear();
        let seed = match fault.site {
            FaultSite::Stem(net) => net,
            FaultSite::Pin { gate, .. } => {
                // The effect enters the circuit through the faulted gate.
                scr.cone_mark[gate.index()] = true;
                scr.cone_gates.push(gate);
                nl.gate(gate).output
            }
        };
        let mut work: Vec<NetId> = vec![seed];
        while let Some(net) = work.pop() {
            for &g in nl.comb_users(net) {
                if !scr.cone_mark[g.index()] {
                    scr.cone_mark[g.index()] = true;
                    scr.cone_gates.push(g);
                    work.push(nl.gate(g).output);
                }
            }
        }
        scr.cone_gates
            .sort_unstable_by_key(|g| self.order_pos[g.index()]);
        scr.clear_nets.push(seed.index() as u32);
        for &g in &scr.cone_gates {
            let gate = nl.gate(g);
            scr.clear_nets.push(gate.output.index() as u32);
            for i in &gate.inputs {
                scr.clear_nets.push(i.index() as u32);
            }
        }
        for o in nl.outputs() {
            scr.clear_nets.push(o.index() as u32);
        }
    }

    /// Copies the shared constraint-only state into `scr.values` and
    /// injects `fault` into it: a primary-input stem fault sets that
    /// input's faulty rail the way [`Searcher::assign`] does, and any other
    /// fault queues the gate that owns its site; [`Searcher::propagate`]
    /// then carries the effect through the fanout. The trail is cleared
    /// afterwards, so no backtrack ever unwinds the seed.
    fn seed(&self, fault: &Fault, scr: &mut Scratch) {
        let nl = self.netlist;
        scr.values.clear();
        scr.values.extend_from_slice(&self.base);
        let owner = match fault.site {
            FaultSite::Stem(net) => nl.driver(net),
            FaultSite::Pin { gate, .. } => Some(gate),
        };
        if let Some(gid) = owner {
            enqueue(nl, &mut scr.queued, &mut scr.buckets, gid);
            self.propagate(fault, scr);
        } else if let FaultSite::Stem(net) = fault.site {
            // No gate drives the site: it is a primary input.
            let dr = Dual3 {
                faulty: Some(fault.stuck_value),
                ..self.base[net.index()]
            };
            self.drive_input(fault, net, dr, scr);
        }
        scr.trail.clear();
    }

    /// Assigns one primary input and propagates the change through its
    /// fanout cone, recording every overwritten value on a new trail frame.
    fn assign(&self, fault: &Fault, pos: usize, value: bool, scr: &mut Scratch) {
        scr.frames.push(scr.trail.len());
        let net = self.netlist.inputs()[pos];
        let mut dr = Dual3 {
            good: Some(value),
            faulty: Some(value),
        };
        if fault.site == FaultSite::Stem(net) {
            dr.faulty = Some(fault.stuck_value);
        }
        self.drive_input(fault, net, dr, scr);
    }

    /// Sets primary input `net` to `dr` and, if that changes it, records
    /// the old value on the trail and propagates through its fanout cone.
    fn drive_input(&self, fault: &Fault, net: NetId, dr: Dual3, scr: &mut Scratch) {
        let old = scr.values[net.index()];
        if dr == old {
            return;
        }
        scr.trail.push((net.index() as u32, old));
        scr.values[net.index()] = dr;
        for &u in self.netlist.comb_users(net) {
            enqueue(self.netlist, &mut scr.queued, &mut scr.buckets, u);
        }
        self.propagate(fault, scr);
    }

    /// Drains the levelized event queue: levels ascend, and every user of
    /// a re-evaluated gate sits at a strictly greater level, so each gate
    /// settles in one visit per wave.
    fn propagate(&self, fault: &Fault, scr: &mut Scratch) {
        let nl = self.netlist;
        let Scratch {
            values,
            trail,
            buckets,
            queued,
            good_in,
            faulty_in,
            ..
        } = scr;
        for lvl in 0..nl.level_count() {
            while let Some(gid) = buckets[lvl].pop() {
                queued[gid.index()] = false;
                let new = eval_dual_gate(nl, gid, fault, values, good_in, faulty_in);
                let out = nl.gate(gid).output;
                let old = values[out.index()];
                if new == old {
                    continue;
                }
                trail.push((out.index() as u32, old));
                values[out.index()] = new;
                for &u in nl.comb_users(out) {
                    enqueue(nl, queued, buckets, u);
                }
            }
        }
    }

    /// Rolls back the newest trail frame, restoring the exact net values
    /// that held before the matching [`Searcher::assign`].
    fn undo_frame(scr: &mut Scratch) {
        let base = scr.frames.pop().expect("one frame per decision");
        while scr.trail.len() > base {
            let (net, old) = scr.trail.pop().expect("trail covers the frame");
            scr.values[net as usize] = old;
        }
    }

    /// In debug builds: the incrementally maintained state must equal a
    /// from-scratch evaluation after seeding and at every decision point.
    #[cfg(debug_assertions)]
    fn check_values(&self, pi: &[T3], fault: &Fault, scr: &Scratch) {
        debug_assert_eq!(
            sbst_gates::eval_dual_reference(self.netlist, pi, fault),
            scr.values,
            "incremental values diverged from the from-scratch evaluation"
        );
    }

    /// Runs one PODEM search. `scr` is a caller-owned scratch (one per
    /// worker) reused across searches.
    pub(crate) fn search(&self, fault: &Fault, scr: &mut Scratch) -> SearchResult {
        let nl = self.netlist;
        scr.prepare(nl);
        self.build_cone(fault, scr);
        let mut pi = self.pi_template.clone();
        self.seed(fault, scr);
        #[cfg(debug_assertions)]
        self.check_values(&pi, fault, scr);
        if self.root_proof(fault, scr) {
            return SearchResult {
                outcome: SearchOutcome::Redundant,
                backtracks: 0,
            };
        }
        // Decision stack: (input position, value, flipped yet?).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0u64;
        let mut heuristic_cutoff = false;
        let (act_net, act_value) = self.activation_objective(fault);

        loop {
            #[cfg(debug_assertions)]
            self.check_values(&pi, fault, scr);

            // Success: fault effect at a primary output.
            if nl
                .outputs()
                .iter()
                .any(|o| scr.values[o.index()].has_effect())
            {
                // X-fill from the per-target stream: the pattern depends
                // only on this fault, not on which searches ran before.
                let mut rng = StdRng::seed_from_u64(fault_stream_seed(self.rng_seed, fault));
                let pattern: Vec<bool> = pi
                    .iter()
                    .map(|v| v.unwrap_or_else(|| rng.random()))
                    .collect();
                return SearchResult {
                    outcome: SearchOutcome::Test(pattern),
                    backtracks,
                };
            }

            // Derive an objective, or fail this branch.
            let objective = {
                let act = scr.values[act_net.index()].good;
                if act == Some(!act_value) {
                    None // activation conflict: sound failure
                } else {
                    // X-path check: three-valued evaluation is monotone
                    // (a net definite-and-equal on both rails stays so
                    // under every further assignment), so a fault effect
                    // can only ever travel through nets that are open
                    // *now*. Branches with no open route to an output are
                    // abandoned as sound failures.
                    self.compute_reach(scr, false);
                    if act.is_none() {
                        if scr.reach[act_net.index()] {
                            Some((act_net, act_value))
                        } else {
                            None // effect could never escape: sound failure
                        }
                    } else {
                        // Activated: drive the D-frontier.
                        match self.d_frontier_objective(scr, fault) {
                            FrontierObjective::Objective(net, value) => Some((net, value)),
                            FrontierObjective::NoFrontier => None, // sound failure
                            FrontierObjective::NoXInput => {
                                heuristic_cutoff = true;
                                None
                            }
                        }
                    }
                }
            };

            let decision = objective.and_then(|(net, value)| {
                self.backtrace(&scr.values, net, value).or_else(|| {
                    heuristic_cutoff = true;
                    None
                })
            });

            match decision {
                Some((net, value)) => {
                    let pos = nl.input_position(net).expect("backtrace ends at a PI");
                    debug_assert!(pi[pos].is_none());
                    pi[pos] = Some(value);
                    self.assign(fault, pos, value, scr);
                    stack.push((pos, value, false));
                }
                None => {
                    // Backtrack.
                    backtracks += 1;
                    if backtracks > self.backtrack_limit as u64 {
                        return SearchResult {
                            outcome: SearchOutcome::Aborted,
                            backtracks,
                        };
                    }
                    loop {
                        match stack.pop() {
                            Some((pos, value, false)) => {
                                Self::undo_frame(scr);
                                pi[pos] = Some(!value);
                                self.assign(fault, pos, !value, scr);
                                stack.push((pos, !value, true));
                                break;
                            }
                            Some((pos, _, true)) => {
                                Self::undo_frame(scr);
                                pi[pos] = None;
                            }
                            None => {
                                let outcome = if heuristic_cutoff {
                                    SearchOutcome::Aborted
                                } else {
                                    SearchOutcome::Redundant
                                };
                                return SearchResult {
                                    outcome,
                                    backtracks,
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    /// The net whose good value activates the fault, and the required value.
    fn activation_objective(&self, fault: &Fault) -> (NetId, bool) {
        let net = match fault.site {
            FaultSite::Stem(net) => net,
            FaultSite::Pin { gate, pin } => self.netlist.gate(gate).inputs[pin as usize],
        };
        (net, !fault.stuck_value)
    }

    /// Backtraces an objective to an unassigned primary input.
    fn backtrace(
        &self,
        values: &[Dual3],
        mut net: NetId,
        mut value: bool,
    ) -> Option<(NetId, bool)> {
        loop {
            match self.netlist.driver(net) {
                None => {
                    // A primary input with good X is necessarily unassigned
                    // and unconstrained.
                    debug_assert!(values[net.index()].good.is_none());
                    return Some((net, value));
                }
                Some(gid) => {
                    let gate = self.netlist.gate(gid);
                    let x_input = gate
                        .inputs
                        .iter()
                        .find(|i| values[i.index()].good.is_none())?;
                    value = match gate.kind {
                        GateKind::Nand | GateKind::Nor | GateKind::Not => !value,
                        _ => value,
                    };
                    net = *x_input;
                }
            }
        }
    }

    /// Marks every net from which a fault effect could still reach a
    /// primary output: `reach[n]` holds when `n` drives an output, or some
    /// fanout gate has an *open* output (X on either rail, or already
    /// carrying an effect) that is itself reachable. One reverse pass over
    /// the cone's topological order — effects never exist outside the
    /// fanout cone, so the walk stops at its boundary. Because
    /// three-valued evaluation is monotone, definite-and-equal nets are
    /// walls the effect can never cross, so this over-approximates every
    /// future propagation path and pruning on it is sound.
    ///
    /// With `fixed_mux` (the root proof only), an open `Mux2` whose select
    /// is definite and equal on both rails marks only its selected data
    /// input: that select never reopens, so the other data input can never
    /// reach the output. The per-decision pass leaves the rule off, so it
    /// never changes which D-frontier gate a search drives.
    fn compute_reach(&self, scr: &mut Scratch, fixed_mux: bool) {
        let nl = self.netlist;
        let Scratch {
            values,
            reach,
            cone_gates,
            clear_nets,
            ..
        } = scr;
        for &n in clear_nets.iter() {
            reach[n as usize] = false;
        }
        for o in nl.outputs() {
            reach[o.index()] = true;
        }
        for &gid in cone_gates.iter().rev() {
            let gate = nl.gate(gid);
            let out = values[gate.output.index()];
            let open = out.has_effect() || out.good.is_none() || out.faulty.is_none();
            if !open || !reach[gate.output.index()] {
                continue;
            }
            match fixed_select(values, gate).filter(|_| fixed_mux) {
                Some(pin) => reach[gate.inputs[pin].index()] = true,
                None => {
                    for i in &gate.inputs {
                        reach[i.index()] = true;
                    }
                }
            }
        }
    }

    /// Proves before the first decision, on the constraint-seeded values,
    /// that `fault` is untestable: its activation net is held at the stuck
    /// value, or no open route (with the fixed-mux rule of
    /// [`Searcher::compute_reach`]) leads from the fault to an output. A
    /// pin fault's route starts through its own gate, whose output must be
    /// open and reachable; the unselected data pin of a fixed mux is
    /// blocked, its select pin is not (the fault changes the select the
    /// faulty rail sees). Both facts hold under every further assignment,
    /// so `true` is a sound redundancy proof.
    // Out of line: it runs once per search, off the per-decision path.
    #[inline(never)]
    fn root_proof(&self, fault: &Fault, scr: &mut Scratch) -> bool {
        let (act_net, act_value) = self.activation_objective(fault);
        if scr.values[act_net.index()].good == Some(!act_value) {
            return true;
        }
        self.compute_reach(scr, true);
        match fault.site {
            FaultSite::Stem(net) => !scr.reach[net.index()],
            FaultSite::Pin { gate, pin } => {
                let gate = self.netlist.gate(gate);
                let out = scr.values[gate.output.index()];
                let open = out.has_effect() || out.is_x();
                let blocked = fixed_select(&scr.values, gate)
                    .is_some_and(|sel| pin != 0 && pin as usize != sel);
                !open || !scr.reach[gate.output.index()] || blocked
            }
        }
    }

    /// Picks a D-frontier gate and an X input with its non-controlling
    /// value, scanning only the fault's fanout cone (effects cannot exist
    /// elsewhere). Frontier gates whose output cannot reach a primary
    /// output (per `reach`) are dead ends and skipped entirely: if every
    /// frontier gate is unreachable the branch fails soundly, not
    /// heuristically.
    fn d_frontier_objective(&self, scr: &Scratch, fault: &Fault) -> FrontierObjective {
        let nl = self.netlist;
        let values = &scr.values;
        let mut saw_frontier = false;
        for &gid in &scr.cone_gates {
            let gate = nl.gate(gid);
            let out = values[gate.output.index()];
            if out.has_effect() || !out.is_x() || !scr.reach[gate.output.index()] {
                continue;
            }
            // A gate is on the D-frontier if an input carries a fault
            // effect — or if it *is* the faulted gate of an (activated) pin
            // fault, whose effect exists only at the pin itself.
            let is_fault_gate = matches!(fault.site, FaultSite::Pin { gate: fg, .. } if fg == gid);
            if !is_fault_gate && !gate.inputs.iter().any(|i| values[i.index()].has_effect()) {
                continue;
            }
            saw_frontier = true;
            // Mux2: steer the select towards the input carrying the effect.
            if gate.kind == GateKind::Mux2 {
                let sel = values[gate.inputs[0].index()];
                if sel.good.is_none() {
                    let effect_on_d1 = values[gate.inputs[2].index()].has_effect();
                    return FrontierObjective::Objective(gate.inputs[0], effect_on_d1);
                }
            }
            let Some(x_input) = gate
                .inputs
                .iter()
                .find(|i| values[i.index()].good.is_none())
            else {
                continue; // this frontier gate is saturated; try another
            };
            let value = match gate.kind {
                GateKind::And | GateKind::Nand => true,
                GateKind::Or | GateKind::Nor => false,
                _ => false,
            };
            return FrontierObjective::Objective(*x_input, value);
        }
        if saw_frontier {
            FrontierObjective::NoXInput
        } else {
            FrontierObjective::NoFrontier
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_gates::NetlistBuilder;

    /// `y = s ? (b & c) : a` with the select `s` pinned to 0, so the mux
    /// passes `a` and blocks the AND gate.
    fn pinned_mux() -> (Netlist, Vec<T3>) {
        let mut b = NetlistBuilder::new("pinned_mux");
        let s = b.input("s");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let d1 = b.and2(x, c);
        let y = b.mux2(s, a, d1);
        b.mark_output(y, "y");
        (b.finish().unwrap(), vec![Some(false), None, None, None])
    }

    fn search(netlist: &Netlist, pi: &[T3], fault: Fault) -> SearchResult {
        Searcher::new(netlist, pi.to_vec(), 2_000, 1).search(&fault, &mut Scratch::default())
    }

    fn mux_gate(netlist: &Netlist) -> GateId {
        netlist.driver(netlist.outputs()[0]).unwrap()
    }

    /// Every combinational gate kind, with reconvergent fanout and a
    /// multi-input AND and OR.
    fn every_gate_kind() -> Netlist {
        let mut b = NetlistBuilder::new("every_kind");
        let [a, x, c, d] = ["a", "b", "c", "d"].map(|name| b.input(name));
        let buf = b.gate(GateKind::Buf, &[a]);
        let inv = b.not(x);
        let and3 = b.gate(GateKind::And, &[a, x, c]);
        let nand = b.gate(GateKind::Nand, &[buf, inv]);
        let or3 = b.gate(GateKind::Or, &[and3, c, d]);
        let nor = b.gate(GateKind::Nor, &[nand, d]);
        let xor = b.xor2(or3, nor);
        let xnor = b.gate(GateKind::Xnor, &[xor, a]);
        let mux = b.mux2(c, xnor, nand);
        let k0 = b.const0();
        let k1 = b.const1();
        let y = b.and2(mux, k1);
        let z = b.or2(nor, k0);
        b.mark_output(y, "y");
        b.mark_output(z, "z");
        b.mark_output(xor, "xor");
        b.finish().unwrap()
    }

    #[test]
    fn seed_matches_the_reference_for_every_fault_and_template() {
        let n = every_gate_kind();
        let kinds: Vec<GateKind> = n.gates().iter().map(|g| g.kind).collect();
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux2,
            GateKind::Const0,
            GateKind::Const1,
        ] {
            assert!(kinds.contains(&kind), "{kind:?} missing from the netlist");
        }
        let faults = n.all_faults();
        assert!(faults
            .iter()
            .any(|f| matches!(f.site, FaultSite::Pin { .. })));
        // One scratch across every search, as a worker reuses it.
        let mut scr = Scratch::default();
        // All 81 three-valued templates over the four inputs; code 0 is
        // all-X.
        for code in 0..81u32 {
            let pi: Vec<T3> = (0..4)
                .map(|i| match code / 3u32.pow(i) % 3 {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                })
                .collect();
            let searcher = Searcher::new(&n, pi.clone(), 2_000, 1);
            for fault in &faults {
                scr.prepare(&n);
                searcher.seed(fault, &mut scr);
                assert_eq!(
                    scr.values,
                    sbst_gates::eval_dual_reference(&n, &pi, fault),
                    "{fault:?} under {pi:?}"
                );
                assert!(scr.trail.is_empty(), "the seed is not undoable");
            }
        }
    }

    #[test]
    fn unselected_data_input_proves_at_the_root() {
        let (n, pi) = pinned_mux();
        let mux = mux_gate(&n);
        let d1 = n.gate(mux).inputs[2];
        for fault in [
            Fault::stem_sa0(d1),
            Fault::stem_sa1(d1),
            Fault {
                site: FaultSite::Pin { gate: mux, pin: 2 },
                stuck_value: false,
            },
        ] {
            let res = search(&n, &pi, fault);
            assert!(
                matches!(res.outcome, SearchOutcome::Redundant),
                "{fault:?}: {:?}",
                res.outcome
            );
            assert_eq!(res.backtracks, 0, "{fault:?} proved before any decision");
        }

        // The mux output stays open (its selected input `a` is X), so the
        // per-decision pass alone still sees a route from `d1`.
        let searcher = Searcher::new(&n, pi.clone(), 2_000, 1);
        let fault = Fault::stem_sa0(d1);
        let mut scr = Scratch::default();
        scr.prepare(&n);
        searcher.build_cone(&fault, &mut scr);
        searcher.seed(&fault, &mut scr);
        searcher.compute_reach(&mut scr, false);
        assert!(scr.reach[d1.index()]);
        searcher.compute_reach(&mut scr, true);
        assert!(!scr.reach[d1.index()]);
    }

    #[test]
    fn select_faults_and_the_selected_input_still_find_tests() {
        let (n, pi) = pinned_mux();
        let mux = mux_gate(&n);
        let [s, a, _] = [0, 1, 2].map(|pin| n.gate(mux).inputs[pin]);
        for fault in [
            // The pin fault flips the select only the faulty rail sees.
            Fault {
                site: FaultSite::Pin { gate: mux, pin: 0 },
                stuck_value: true,
            },
            // The select net itself carries the fault effect.
            Fault::stem_sa1(s),
            Fault::stem_sa0(a),
            Fault {
                site: FaultSite::Pin { gate: mux, pin: 1 },
                stuck_value: true,
            },
        ] {
            let res = search(&n, &pi, fault);
            assert!(
                matches!(res.outcome, SearchOutcome::Test(_)),
                "{fault:?}: {:?}",
                res.outcome
            );
        }
    }
}
