//! Characterize once, run everywhere.
//!
//! A fleet of simulated nodes shares one set of immutable test artifacts:
//! the graded schedule (routine programs + watchdog budgets), the golden
//! [`SignatureStore`], the per-component characterization coverage, and
//! the fault-mountable components, each prepared once for mounting.
//! [`Characterizer`] builds them exactly
//! once — on whichever worker thread asks first — and hands out `Arc`
//! clones; an atomic counter proves the "exactly once" claim for any node
//! count and any worker count, the same way the compiled-tape engine's
//! `tape_compilations` counter proves tapes are never rebuilt per pattern.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sbst_components::Component;
use sbst_core::plan::build_managed_schedule_graded;
use sbst_core::Cut;
use sbst_cpu::faulty::{ArchFault, Mountable};
use sbst_cpu::mac::MacKey;
use sbst_cpu::manager::{SharedSchedule, SignatureStore};
use sbst_gates::{Fault, FaultSimConfig};

use crate::profile::TargetSpec;

/// A fault-mountable target with its shared netlist.
#[derive(Debug, Clone)]
pub struct FaultTarget {
    /// Component name — matches the managed schedule's key.
    pub name: String,
    /// The shared component: its netlist, ports and width.
    pub component: Arc<Component>,
    /// Site description (port + width) used when planning faults.
    pub spec: TargetSpec,
}

/// The mountable fault targets of one characterization, in inventory
/// order, each prepared once as a [`Mountable`]: its compiled tape and its
/// port region.
///
/// Collecting [`FaultTarget`]s into this type prepares every component
/// exactly once, and collection happens inside the once-only
/// characterization, so the fleet compiles each mountable component once
/// per run for any node and worker count. [`FaultTargets::mount`] is then
/// a refcount bump plus the mount's own evaluator. Dereferences to the
/// targets as a slice.
///
/// # Panics
///
/// Collecting panics on a target [`Mountable::new`] refuses.
#[derive(Debug, Clone, Default)]
pub struct FaultTargets {
    targets: Vec<FaultTarget>,
    /// Parallel to `targets`.
    mountables: Vec<Arc<Mountable>>,
}

impl FaultTargets {
    /// Mounts `fault` into target `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or on any
    /// [`ArchFault::from_shared`] contract violation — notably a fault
    /// site outside the target's netlist.
    pub fn mount(&self, index: usize, fault: Fault) -> ArchFault {
        ArchFault::from_shared(&self.mountables[index], fault)
    }
}

impl FromIterator<FaultTarget> for FaultTargets {
    fn from_iter<I: IntoIterator<Item = FaultTarget>>(iter: I) -> Self {
        let targets: Vec<FaultTarget> = iter.into_iter().collect();
        let mountables = targets
            .iter()
            .map(|t| Arc::new(Mountable::new(Arc::clone(&t.component))))
            .collect();
        FaultTargets {
            targets,
            mountables,
        }
    }
}

impl Deref for FaultTargets {
    type Target = [FaultTarget];

    fn deref(&self) -> &[FaultTarget] {
        &self.targets
    }
}

impl<'a> IntoIterator for &'a FaultTargets {
    type Item = &'a FaultTarget;
    type IntoIter = std::slice::Iter<'a, FaultTarget>;

    fn into_iter(self) -> Self::IntoIter {
        self.targets.iter()
    }
}

/// The immutable artifacts every node shares.
#[derive(Debug)]
pub struct SharedArtifacts {
    /// One managed routine per routine-capable CUT, shared fleet-wide,
    /// with each routine's fault-free outcome recorded by the first node
    /// that runs it.
    pub components: SharedSchedule,
    /// The sealed golden store each node's private copy starts from —
    /// keyed with [`SharedArtifacts::store_key`] at seal epoch 0.
    pub store: SignatureStore,
    /// The per-characterization MAC key sealing the store, provisioned
    /// once here and threaded to every node's manager.
    /// [`MacKey::UNKEYED`] unless the characterizer was given a key seed.
    pub store_key: MacKey,
    /// Per-component fault coverage measured at characterization time
    /// (component name, percent).
    pub coverage: Vec<(String, f64)>,
    /// Mountable fault targets, each prepared once, in inventory order.
    pub targets: FaultTargets,
}

/// Builds [`SharedArtifacts`] at most once per fleet run.
#[derive(Debug)]
pub struct Characterizer {
    cuts: Vec<Cut>,
    sim: FaultSimConfig,
    key_seed: Option<u64>,
    cell: OnceLock<Arc<SharedArtifacts>>,
    runs: AtomicU64,
}

impl Characterizer {
    /// Prepares a characterizer over `cuts` (nothing runs yet).
    pub fn new(cuts: Vec<Cut>) -> Self {
        Self::with_sim(cuts, FaultSimConfig::default())
    }

    /// [`Characterizer::new`] with an explicit fault-simulator
    /// configuration for the grading pass.
    pub fn with_sim(cuts: Vec<Cut>, sim: FaultSimConfig) -> Self {
        Characterizer {
            cuts,
            sim,
            key_seed: None,
            cell: OnceLock::new(),
            runs: AtomicU64::new(0),
        }
    }

    /// Provisions a per-characterization MAC key derived from `seed`
    /// ([`MacKey::from_seed`]): the golden store is sealed keyed and every
    /// node's manager receives the same key through the shared artifacts.
    /// Without this the fleet runs on the [`MacKey::UNKEYED`]
    /// compatibility key (tamper-evident, not forgery-proof).
    #[must_use]
    pub fn with_key_seed(mut self, seed: u64) -> Self {
        self.key_seed = Some(seed);
        self
    }

    /// The target specs derivable without characterizing — profile
    /// assignment needs these before any routine has been built.
    pub fn target_specs(&self) -> Vec<TargetSpec> {
        self.cuts
            .iter()
            .filter_map(|cut| TargetSpec::for_kind(cut.kind(), cut.component.width))
            .collect()
    }

    /// The shared artifacts, characterizing on first call. Concurrent
    /// callers block on the one in-flight characterization; the counter
    /// records how many actually ran.
    ///
    /// # Panics
    ///
    /// Panics if a routine fails to build or execute — characterization
    /// failures are configuration bugs, not runtime conditions.
    pub fn artifacts(&self) -> Arc<SharedArtifacts> {
        Arc::clone(self.cell.get_or_init(|| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            let schedule = build_managed_schedule_graded(&self.cuts, self.sim)
                .expect("fleet characterization succeeds");
            let coverage = schedule
                .coverage
                .iter()
                .map(|(name, cov)| (name.clone(), cov.percent()))
                .collect();
            let targets = self
                .cuts
                .iter()
                .filter_map(|cut| {
                    let spec = TargetSpec::for_kind(cut.kind(), cut.component.width)?;
                    Some(FaultTarget {
                        name: cut.name().to_owned(),
                        component: Arc::new(cut.component.clone()),
                        spec,
                    })
                })
                .collect();
            let store_key = self.key_seed.map(MacKey::from_seed).unwrap_or_default();
            // Re-seal the characterization's store under the provisioned
            // key (epoch 0) — the snapshot itself is sealed unkeyed.
            let store =
                SignatureStore::with_key(schedule.store_snapshot().entries().to_vec(), &store_key);
            Arc::new(SharedArtifacts {
                components: schedule.shared_components(),
                store,
                store_key,
                coverage,
                targets,
            })
        }))
    }

    /// How many characterizations actually ran (the fleet invariant is
    /// exactly 1 after any run, for any node and worker count).
    pub fn characterizations(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterizes_exactly_once_across_threads() {
        let chr = Arc::new(Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]));
        assert_eq!(chr.characterizations(), 0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let chr = Arc::clone(&chr);
                scope.spawn(move || {
                    let artifacts = chr.artifacts();
                    assert_eq!(artifacts.components.len(), 2);
                    assert!(artifacts.store.verify());
                });
            }
        });
        assert_eq!(chr.characterizations(), 1);
        // A later call reuses the same allocation.
        let a = chr.artifacts();
        let b = chr.artifacts();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(chr.characterizations(), 1);
    }

    #[test]
    fn key_seed_provisions_a_keyed_store() {
        let chr = Characterizer::new(vec![Cut::alu(32)]).with_key_seed(0xFEED);
        let artifacts = chr.artifacts();
        assert_eq!(artifacts.store_key, MacKey::from_seed(0xFEED));
        assert!(!artifacts.store_key.is_unkeyed());
        // Legacy checksum still verifies; the keyed audit passes under the
        // provisioned key and fails under any other.
        assert!(artifacts.store.verify());
        assert!(artifacts.store.audit(&artifacts.store_key, 0).is_clean());
        assert!(!artifacts.store.audit(&MacKey::UNKEYED, 0).is_clean());
        // Without a key seed the fleet runs on the compatibility key.
        let plain = Characterizer::new(vec![Cut::alu(32)]).artifacts();
        assert!(plain.store_key.is_unkeyed());
        assert!(plain.store.audit(&MacKey::UNKEYED, 0).is_clean());
    }

    #[test]
    fn artifacts_carry_coverage_and_targets() {
        let chr = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
        let artifacts = chr.artifacts();
        assert_eq!(artifacts.coverage.len(), 2);
        for (name, pct) in &artifacts.coverage {
            assert!(*pct > 50.0, "{name} coverage {pct}");
        }
        assert_eq!(artifacts.targets.len(), 2);
        for target in &artifacts.targets {
            assert_eq!(target.component.width, 32);
            assert!(target.spec.width >= 32);
        }
        assert_eq!(chr.target_specs().len(), 2);
    }

    #[test]
    fn mounting_shares_the_prepared_component() {
        let artifacts = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]).artifacts();
        let targets = &artifacts.targets;
        for (index, target) in targets.iter().enumerate() {
            let shared = &targets.mountables[index];
            assert!(
                std::ptr::eq(shared.component(), &*target.component),
                "the preparation shares the target's component"
            );
            let port = target.component.ports.output(target.spec.port);
            let shares = Arc::strong_count(shared);
            for (net, on_port_path) in [
                (port.net(0), true),
                (target.component.netlist.inputs()[0], false),
            ] {
                let mounted = targets.mount(index, Fault::stem_sa1(net));
                assert_eq!(mounted.on_port_path(), on_port_path);
                // A mount holds one more reference to the same preparation:
                // nothing was compiled for it.
                assert_eq!(Arc::strong_count(shared), shares + 1);
                drop(mounted);
                assert_eq!(Arc::strong_count(shared), shares);
            }
        }
    }
}
