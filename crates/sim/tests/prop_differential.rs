//! Property test for stage 4: the planner's off-loading negotiation (the
//! paper's strategy on a reliable bus) must land on exactly the placement
//! of the naive reference planner, whose off-loading is a plain
//! sequential loop with no messages.

use mmrepl_core::ReplicationPolicy;
use mmrepl_model::ReqPerSec;
use mmrepl_sim::differential::check_dense_vs_reference;
use mmrepl_workload::{generate_system, WorkloadParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sites get cpu headroom so they can absorb, and the repository is
    /// squeezed to a fraction of the load the local restorations leave
    /// on it, so most cases run real negotiation rounds.
    #[test]
    fn reliable_negotiation_matches_the_naive_reference(
        seed in 0u64..300,
        cap_frac in 0.0f64..1.2,
        headroom in 1.0f64..1.6,
    ) {
        let sys = generate_system(&WorkloadParams::small(), seed)
            .expect("valid params")
            .with_processing_fraction(headroom);
        // Stage 4 starts from the restored load whatever the repository
        // capacity, so one plan reads it off.
        let induced = ReplicationPolicy::new().plan(&sys).report.offload.initial_repo_load;
        let squeezed = sys.with_repository_capacity(ReqPerSec(induced * cap_frac));
        let verdict = check_dense_vs_reference(&squeezed);
        prop_assert!(verdict.is_ok(), "seed {}: {:?}", seed, verdict);
    }
}
