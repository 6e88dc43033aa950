//! `HMPI_Recon` under dynamic external load.
//!
//! The paper's third HNOC challenge: workstations are multi-user, so "the
//! actual speeds of processors can dynamically change dependent on the
//! external computations". This example puts a heavy external job on the
//! fastest machine halfway through, and shows that a group created from
//! stale estimates is slow while one created after a fresh `HMPI_Recon`
//! routes around the loaded machine.
//!
//! ```text
//! cargo run --release -p hmpi-apps --example dynamic_load_recon
//! ```

use hetsim::{Link, LoadModel, Processor, Protocol, SimTime, TopologyBuilder};
use hmpi::{HmpiRuntime, RuntimeConfig};
use perfmodel::{CompiledModel, PerformanceModel};

fn main() {
    // "bigiron" loses 90% of its capacity from t = 100 on (another user's
    // job arrives).
    let topology = TopologyBuilder::new()
        .node("host", 50.0)
        .processor(
            Processor::new("bigiron", 200.0).with_load(LoadModel::Step {
                start: SimTime::from_secs(100.0),
                end: SimTime::from_secs(1e9),
                fraction: 0.9,
            }),
        )
        .node("steady", 100.0)
        .node("backup", 90.0)
        .intra_switch(Link::with_defaults(Protocol::Tcp))
        .build();

    // A light parent task and one heavy task, in the model language.
    let model = CompiledModel::compile(
        "algorithm OneHeavyTask() {
           coord I=2; node {I==0: bench*(50); I==1: bench*(2000);}; parent[0]; }",
    )
    .expect("model compiles")
    .instantiate(&[])
    .expect("model instantiates");

    let runtime = HmpiRuntime::from_topology(topology, RuntimeConfig::new());
    let report = runtime.run(|h| {
        // Phase 1: before the load arrives. Recon sees bigiron at 200.
        h.recon(10.0).expect("recon");
        let g1 = h.group_create(&model).expect("create");
        let pick1 = g1.members()[1];
        let t0 = h.now();
        if let Some(comm) = g1.comm() {
            comm.compute(model.volumes()[comm.rank()]);
            comm.barrier().expect("barrier");
        }
        let phase1 = (h.now() - t0).as_secs();
        if g1.is_member() {
            h.group_free(g1).expect("free");
        }
        h.finalize().expect("sync");

        // Let virtual time pass the load onset on every rank.
        let here = h.now().as_secs();
        if here < 120.0 {
            h.compute((120.0 - here) * h.process().cluster().speed_at(h.node(), h.now()));
        }
        h.finalize().expect("sync");

        // Phase 2a: stale estimates still claim bigiron is fastest.
        let g2 = h.group_create(&model).expect("create");
        let stale_pick = g2.members()[1];
        let t0 = h.now();
        if let Some(comm) = g2.comm() {
            comm.compute(model.volumes()[comm.rank()]);
            comm.barrier().expect("barrier");
        }
        let stale_time = (h.now() - t0).as_secs();
        if g2.is_member() {
            h.group_free(g2).expect("free");
        }
        h.finalize().expect("sync");

        // Phase 2b: fresh recon notices the load and avoids bigiron.
        h.recon(10.0).expect("recon");
        let g3 = h.group_create(&model).expect("create");
        let fresh_pick = g3.members()[1];
        let t0 = h.now();
        if let Some(comm) = g3.comm() {
            comm.compute(model.volumes()[comm.rank()]);
            comm.barrier().expect("barrier");
        }
        let fresh_time = (h.now() - t0).as_secs();
        if g3.is_member() {
            h.group_free(g3).expect("free");
        }
        h.finalize().expect("sync");

        (pick1, phase1, stale_pick, stale_time, fresh_pick, fresh_time)
    });

    let (pick1, phase1, stale_pick, stale_time, fresh_pick, fresh_time) = report.results[0];
    let name = |r: usize| ["host", "bigiron", "steady", "backup"][r];
    println!("phase 1 (no load):        heavy task on {:<8} -> {phase1:>8.2} virtual s", name(pick1));
    println!("phase 2 (stale recon):    heavy task on {:<8} -> {stale_time:>8.2} virtual s", name(stale_pick));
    println!("phase 2 (fresh recon):    heavy task on {:<8} -> {fresh_time:>8.2} virtual s", name(fresh_pick));
    assert_eq!(name(pick1), "bigiron");
    assert_eq!(name(stale_pick), "bigiron", "stale estimates keep picking the loaded machine");
    assert_ne!(name(fresh_pick), "bigiron", "fresh recon must route around the load");
    assert!(fresh_time < stale_time);
    println!(
        "\nfresh recon is {:.1}x faster than planning on stale estimates.",
        stale_time / fresh_time
    );
}
