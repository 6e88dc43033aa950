//! Bit-identical replay: the flagship determinism property.
//!
//! Two runs of the same simcheck scenario seed must produce bit-identical
//! virtual times, per-rank verdicts and traces under *every* contention
//! model — arbitration for shared NICs, the shared bus and the intra-node
//! memory bus is endpoint-causal (each rank's resource frontier advances
//! only with its own program order), so the host's thread schedule cannot
//! leak into the simulation. Before this held, bus/NIC clocks were granted
//! first-come-first-served in host-schedule order and the invariant had to
//! be carved out to `ParallelLinks`.

use hetsim::ContentionModel;
use mpisim::{ReduceOp, Universe, UniverseConfig};
use proptest::prelude::*;
use simcheck::{build_cluster, generate, Scenario};

/// Runs a fixed mixed workload (neighbour sendrecv, then an allreduce) on
/// the scenario's testbed, and digests everything the run
/// observed: the makespan bits, each rank's result (values as exact bit
/// patterns, errors as their typed rendering) and the full Chrome trace.
fn run_digest(sc: &Scenario) -> (u64, Vec<String>, String) {
    let u = Universe::from_topology(build_cluster(sc), UniverseConfig::new().tracing(true));
    let n = sc.ranks();
    let report = u.run(move |proc| -> Result<Vec<u64>, String> {
        let world = proc.world();
        let me = world.rank();
        let payload: Vec<f64> = (0..6).map(|i| ((me * 31 + i) % 17) as f64 + 0.5).collect();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let (rx, _) = world
            .sendrecv::<f64, f64>(&payload, right, 3, left, 3)
            .map_err(|e| format!("{e:?}"))?;
        let sum = world
            .allreduce_eq_f64(&rx, ReduceOp::Sum)
            .map_err(|e| format!("{e:?}"))?;
        Ok(sum.iter().map(|x| x.to_bits()).collect())
    });
    let results: Vec<String> = report.results.iter().map(|r| format!("{r:?}")).collect();
    let trace = report
        .trace
        .as_ref()
        .expect("tracing enabled")
        .to_chrome_json();
    (report.makespan.as_secs().to_bits(), results, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn same_seed_runs_are_bit_identical_on_every_contention_model(seed in 0u64..5000) {
        for cont in [
            ContentionModel::ParallelLinks,
            ContentionModel::SerializedNic,
            ContentionModel::SharedBus,
        ] {
            let mut sc = generate(seed);
            sc.contention = cont;
            let first = run_digest(&sc);
            let second = run_digest(&sc);
            prop_assert_eq!(&first, &second, "replay diverged under {:?}", cont);
        }
    }
}
