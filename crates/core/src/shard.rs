//! The per-site restoration shard, shared by the cold planner and the
//! incremental delta replanner.
//!
//! In the paper's pipeline every site adopts its rows of the
//! unconstrained `PARTITION` and runs both local restorations (storage,
//! Eq. 10; processing, Eq. 8) on its own state; only the repository's
//! off-loading negotiation couples the sites. [`restore_sites`] runs that
//! per-site part for a list of sites as one shard each on the shared
//! worker pool ([`crate::pool::parallel_map`]) and returns the shards in
//! input order, so whatever the thread count the caller sees the same
//! states, reports and floating-point results as a sequential loop.

use crate::capacity::{restore_capacity, CapacityReport};
use crate::planner::PlannerConfig;
use crate::state::SiteWork;
use crate::storage::{restore_storage, StorageReport};
use crate::streams::SiteParams;
use mmrepl_model::{IdVec, Placement, SiteId, System};

/// One site's state after both local restorations, with what each did.
pub struct SiteShard<'a> {
    /// The restored per-site state, ready for the off-loading stage.
    pub work: SiteWork<'a>,
    /// What storage restoration (Eq. 10) did.
    pub storage: StorageReport,
    /// What capacity restoration (Eq. 8) did.
    pub capacity: CapacityReport,
    /// Wall time of the whole shard, in nanoseconds.
    pub wall_ns: u64,
}

/// Builds each site's [`SiteWork`] from its rows of `initial` and runs
/// [`restore_storage`] then [`restore_capacity`] on it, one shard per
/// site over up to `threads` pool workers (`0` = one per core; nested
/// inside a pool worker it runs sequentially). Sites are estimated with
/// `params[site]` when given (the tree planner's serving channels),
/// otherwise with the site's own [`SiteParams`]. The result is in
/// `sites` order and bit-identical at any thread count.
///
/// Each shard opens a `plan.restore.shard` span around the
/// `plan.partition` (state build), `plan.storage_restore` and
/// `plan.capacity_restore` stage spans; with the `audit` feature the
/// state is audited after each step.
pub fn restore_sites<'a>(
    system: &'a System,
    initial: &Placement,
    sites: &[SiteId],
    params: Option<&IdVec<SiteId, SiteParams>>,
    config: &PlannerConfig,
    threads: usize,
) -> Vec<SiteShard<'a>> {
    crate::pool::parallel_map(sites.len(), threads, |i| {
        let site = sites[i];
        let start = std::time::Instant::now();
        let _shard = mmrepl_obs::span("plan.restore.shard");
        let mut work = {
            // Adopting the partition into dense per-site state is the
            // tail of stage 1, so it counts toward `plan.partition`.
            let _s = mmrepl_obs::span("plan.partition");
            let p = params.map_or_else(|| SiteParams::of(system.site(site)), |ps| ps[site]);
            SiteWork::with_params(
                system,
                site,
                initial,
                config.cost,
                config.include_update_load,
                p,
            )
        };
        #[cfg(feature = "audit")]
        crate::audit::assert_consistent(&work, crate::audit::AuditStage::Partition);
        let storage = {
            let _s = mmrepl_obs::span("plan.storage_restore");
            restore_storage(&mut work)
        };
        #[cfg(feature = "audit")]
        crate::audit::assert_consistent(&work, crate::audit::AuditStage::StorageRestore);
        let capacity = {
            let _s = mmrepl_obs::span("plan.capacity_restore");
            restore_capacity(&mut work)
        };
        #[cfg(feature = "audit")]
        crate::audit::assert_consistent(&work, crate::audit::AuditStage::CapacityRestore);
        SiteShard {
            work,
            storage,
            capacity,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_all_with;
    use crate::select::{select_ancestors, AncestorPolicy};
    use mmrepl_workload::{generate_system, TopologyParams, WorkloadParams};

    /// Six sites: enough for a three-shard subset.
    fn six_sites() -> WorkloadParams {
        WorkloadParams {
            n_sites: 6,
            ..WorkloadParams::small()
        }
    }

    /// Every other site, skipping site 0: a subset whose indices differ
    /// from its positions, so a shard placed by position rather than by
    /// site would show.
    fn odd_sites(sys: &System) -> Vec<SiteId> {
        sys.sites().ids().filter(|s| s.index() % 2 == 1).collect()
    }

    fn assert_thread_invariant(
        sys: &System,
        initial: &Placement,
        params: Option<&IdVec<SiteId, SiteParams>>,
    ) {
        let sites = odd_sites(sys);
        let cfg = PlannerConfig::default();
        for threads in [2, 3] {
            let seq = restore_sites(sys, initial, &sites, params, &cfg, 1);
            let par = restore_sites(sys, initial, &sites, params, &cfg, threads);
            assert_eq!(par.len(), sites.len());
            for ((a, b), &site) in seq.into_iter().zip(par).zip(&sites) {
                assert_eq!((a.work.site(), b.work.site()), (site, site));
                assert_eq!(a.storage, b.storage, "site {site}, threads = {threads}");
                assert_eq!(a.capacity, b.capacity, "site {site}, threads = {threads}");
                assert_eq!(a.work.repo_load().to_bits(), b.work.repo_load().to_bits());
                assert_eq!(
                    a.work.into_partitions(),
                    b.work.into_partitions(),
                    "site {site}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn star_subset_shards_are_bit_identical_across_threads() {
        let sys = generate_system(&six_sites(), 31)
            .unwrap()
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8);
        assert_thread_invariant(&sys, &crate::partition::partition_all(&sys), None);
    }

    #[test]
    fn edge_tree_subset_shards_are_bit_identical_across_threads() {
        let params = WorkloadParams {
            topology: TopologyParams::edge(),
            ..six_sites()
        };
        let sys = generate_system(&params, 32)
            .unwrap()
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8);
        assert!(sys.topology().is_some());
        let sel = select_ancestors(&sys, AncestorPolicy::Closest);
        let initial = partition_all_with(&sys, &sel.params);
        assert_thread_invariant(&sys, &initial, Some(&sel.params));
    }
}
