//! The benchmark's vocabulary: every workload and metric name, with unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test holds the two together); the bounds live only there.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
pub type MetricSpec = (&'static str, &'static str, Better);

/// `run_seconds` of `BENCHMARK.json`: what `all` measures for by default.
pub const RUN_SECONDS: u64 = 10;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "paper_pipeline",
    "p2p_stream",
    "coll_plan",
    "scale_1024",
    "fuzz_batch",
    "fault_storm",
];

use Better::{Higher, Lower};

/// What a user of the simulator sees; reported by untraced runs. Host time
/// throughout. `virtual_s` and `failed_share` ride with the per-layer
/// metrics instead: both are exact rather than bounded, and one of them is
/// zero on a healthy commit, which the benchmark contract does not allow
/// of a gated metric.
pub const END_TO_END: [MetricSpec; 5] = [
    ("setup_s", "s", Lower),
    ("ops_per_s", "op/s", Higher),
    ("op_ms_p50", "ms", Lower),
    ("cpu_ms_per_op", "ms", Lower),
    ("peak_rss_mb", "MiB", Lower),
];

/// Metrics that must repeat exactly between two runs of one commit at one
/// seed, and between a commit and a host-only optimisation of it.
pub const EXACT: [&str; 5] = [
    "virtual_s",
    "failed_share",
    "apps.msgs_per_run",
    "apps.bytes_per_run",
    "trace.events",
];

/// Workloads whose simulated messages the harness can count, each with the
/// metric carrying its host microseconds per simulated message.
pub const HOST_US_PER_MSG: [(&str, &str); 4] = [
    ("paper_pipeline", "mpisim.host_us_per_msg.paper_pipeline"),
    ("p2p_stream", "mpisim.host_us_per_msg.p2p_stream"),
    ("coll_plan", "mpisim.host_us_per_msg.coll_plan"),
    ("scale_1024", "mpisim.host_us_per_msg.scale_1024"),
];

/// Span layers, each with the metric carrying its share of op wall time.
pub const LAYER_SHARES: [(&str, &str); 7] = [
    ("hetsim", "ledger.share.hetsim"),
    ("perfmodel", "ledger.share.perfmodel"),
    ("hmpi", "ledger.share.hmpi"),
    ("mpisim", "ledger.share.mpisim"),
    ("apps", "ledger.share.apps"),
    ("simcheck", "ledger.share.simcheck"),
    ("harness", "ledger.share.harness"),
];

/// Single-layer metrics; reported by traced runs. The first block
/// describes the workload being run; every other metric belongs to one
/// workload (its own full traced run fills it; on the other workloads a
/// small probe run of that workload does).
pub const PER_LAYER: [MetricSpec; 85] = [
    // --- the workload being run -----------------------------------------
    ("virtual_s", "virtual_s", Lower),
    ("failed_share", "fraction", Lower),
    ("tail.op_ms", "ms", Lower),
    ("tail.pct", "pct", Higher),
    ("tail.samples", "count", Higher),
    ("trace.overhead_pct", "%", Lower),
    ("trace.events", "count", Lower),
    ("mpisim.sleep_share", "fraction", Lower),
    ("simcheck.slow_ops", "count", Lower),
    ("ledger.share.hetsim", "fraction", Lower),
    ("ledger.share.perfmodel", "fraction", Lower),
    ("ledger.share.hmpi", "fraction", Lower),
    ("ledger.share.mpisim", "fraction", Lower),
    ("ledger.share.apps", "fraction", Lower),
    ("ledger.share.simcheck", "fraction", Lower),
    ("ledger.share.harness", "fraction", Lower),
    ("ledger.accounted", "fraction", Higher),
    // --- hetsim ---------------------------------------------------------
    ("hetsim.topology_build_ms.p1024", "ms", Lower),
    ("hetsim.pair_table_ms.p128", "ms", Lower),
    ("hetsim.transfer_time_ns.par", "ns", Lower),
    ("hetsim.transfer_time_ns.nic", "ns", Lower),
    ("hetsim.transfer_time_ns.bus", "ns", Lower),
    ("hetsim.chrome_export_ms", "ms", Lower),
    // --- perfmodel ------------------------------------------------------
    ("perfmodel.compile_us", "us", Lower),
    ("perfmodel.instantiate_us", "us", Lower),
    ("perfmodel.schedule_us.p128", "us", Lower),
    ("perfmodel.price_us.p128", "us", Lower),
    ("perfmodel.select_ms.p128", "ms", Lower),
    ("perfmodel.hier_plan_ms.p128", "ms", Lower),
    ("perfmodel.select_ms.p9", "ms", Lower),
    // --- hmpi -----------------------------------------------------------
    ("hmpi.evaluator_build_us", "us", Lower),
    ("hmpi.evals_per_s", "1/s", Higher),
    ("hmpi.probes_per_s", "1/s", Higher),
    ("hmpi.select_mapping_ms.greedy_refined", "ms", Lower),
    ("hmpi.select_mapping_ms.annealing", "ms", Lower),
    ("hmpi.select_mapping_ms.exhaustive", "ms", Lower),
    ("hmpi.select_evals.greedy_refined", "count", Lower),
    ("hmpi.select_evals.annealing", "count", Lower),
    ("hmpi.select_evals.exhaustive", "count", Lower),
    ("hmpi.recon_ms", "ms", Lower),
    ("hmpi.group_create_ms", "ms", Lower),
    ("hmpi.timeof_us", "us", Lower),
    ("hmpi.timeof_sweep_ms", "ms", Lower),
    // --- mpisim ---------------------------------------------------------
    ("mpisim.spawn_join_ms.p9", "ms", Lower),
    ("mpisim.spawn_join_ms.p128", "ms", Lower),
    ("mpisim.spawn_join_ms.p1024", "ms", Lower),
    ("mpisim.pingpong_us", "us", Lower),
    ("mpisim.eager_msgs_per_s", "msgs/s", Higher),
    ("mpisim.rndv_mb_per_s", "MB/s", Higher),
    ("mpisim.fanin_msgs_per_s", "msgs/s", Higher),
    ("mpisim.host_us_per_msg.paper_pipeline", "us", Lower),
    ("mpisim.host_us_per_msg.p2p_stream", "us", Lower),
    ("mpisim.host_us_per_msg.coll_plan", "us", Lower),
    ("mpisim.host_us_per_msg.scale_1024", "us", Lower),
    ("mpisim.pool_reuse_ratio", "fraction", Higher),
    ("mpisim.pool_high_water_mb", "MiB", Lower),
    ("mpisim.coll_auto_ms.p128", "ms", Lower),
    ("mpisim.coll_flatauto_ms.p128", "ms", Lower),
    ("mpisim.coll_fixed_ms.p128", "ms", Lower),
    ("mpisim.plan_share.p128", "fraction", Lower),
    ("mpisim.coll_fixed_ms.p1024", "ms", Lower),
    ("mpisim.barrier_ms.p1024", "ms", Lower),
    ("mpisim.sendrecv_ms.p1024", "ms", Lower),
    ("mpisim.deadlock_detect_ms.p16", "ms", Lower),
    ("mpisim.orphan_detect_ms.p16", "ms", Lower),
    // --- apps -----------------------------------------------------------
    ("apps.em3d_hmpi_ms", "ms", Lower),
    ("apps.em3d_mpi_ms", "ms", Lower),
    ("apps.mm_sweep_ms", "ms", Lower),
    ("apps.mm_fixed_ms", "ms", Lower),
    ("apps.nbody_hmpi_ms", "ms", Lower),
    ("apps.em3d_ft_ms", "ms", Lower),
    ("apps.em3d_ft_slow_share", "fraction", Lower),
    ("apps.msgs_per_run", "count", Lower),
    ("apps.bytes_per_run", "count", Lower),
    // --- simcheck -------------------------------------------------------
    ("simcheck.generate_us", "us", Lower),
    ("simcheck.mixed_seeds_per_s", "seeds/s", Higher),
    ("simcheck.hier_seeds_per_s", "seeds/s", Higher),
    ("simcheck.crashy_seeds_per_s", "seeds/s", Higher),
    ("simcheck.wall_share.app", "fraction", Lower),
    ("simcheck.wall_share.coll", "fraction", Lower),
    ("simcheck.wall_share.group", "fraction", Lower),
    ("simcheck.wall_share.rand", "fraction", Lower),
    ("simcheck.wall_share.recon", "fraction", Lower),
    ("simcheck.wall_share.ring", "fraction", Lower),
    ("simcheck.wall_share.select", "fraction", Lower),
];

/// Whether `name` fits the benchmark contract's charset for names: starts
/// with a letter or digit; at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` fits the contract's charset for units: at most 16
/// letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// The unit of a named metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract_charsets() {
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "metric name {name:?}");
            assert!(valid_unit(unit), "unit {unit:?} of {name}");
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "workload name {w:?}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_unit("virtual s"));
        assert!(!valid_unit(&"u".repeat(17)));
        assert!(valid_unit("op/s") && valid_unit("%") && valid_unit("1/s"));
    }

    #[test]
    fn every_name_is_used_once() {
        let mut seen = BTreeSet::new();
        for (name, _, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(seen.insert(w), "{w} clashes with a metric name");
        }
        let referenced = EXACT
            .into_iter()
            .chain(HOST_US_PER_MSG.map(|m| m.1))
            .chain(LAYER_SHARES.map(|m| m.1));
        for name in referenced {
            assert!(
                unit_of(name).is_some(),
                "{name} is referenced but not listed"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s", Better::Lower)));
    }
}
