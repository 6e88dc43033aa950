//! Quickstart: the minimal HMPI program.
//!
//! Builds a small heterogeneous cluster model, describes a trivial
//! performance model in the paper's model-definition language, and lets
//! `HMPI_Group_create` pick the processes — then the members communicate
//! over the group's MPI communicator.
//!
//! ```text
//! cargo run -p hmpi-apps --example quickstart
//! ```

use hetsim::{Link, Protocol, TopologyBuilder};
use hmpi::{HmpiRuntime, RuntimeConfig};
use mpisim::ReduceOp;
use perfmodel::{CompiledModel, ParamValue};

/// A tiny model in the paper's language: `p` processors with volumes from
/// the `work` vector, a ring of communication, one bulk-synchronous step.
const MODEL: &str = r"
algorithm Ring(int p, int work[p], int bytes) {
  coord I=p;
  node {I>=0: bench*(work[I]);};
  link (L=p) {
    I>=0 && L == (I+1)%p : length*(bytes) [I]->[L];
  };
  parent[0];
  scheme {
    int i;
    par (i = 0; i < p; i++) 100%%[i]->[(i+1)%p];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
";

fn main() {
    // A 5-machine heterogeneous network: one fast, one slow, three medium.
    // Declared through the topology builder; a flat one-level topology is
    // bit-identical to the classic flat cluster, and adding `.site()` /
    // `.switch()` levels later needs no other change.
    let topology = TopologyBuilder::new()
        .node("host", 50.0)
        .node("bigiron", 200.0)
        .node("ws1", 80.0)
        .node("ws2", 80.0)
        .node("old486", 5.0)
        .intra_switch(Link::with_defaults(Protocol::Tcp))
        .build();

    // Compile the performance model once (the paper's "compiler" step).
    let compiled = CompiledModel::compile(MODEL).expect("model parses");

    let runtime = HmpiRuntime::from_topology(topology, RuntimeConfig::new());
    let report = runtime.run(|h| {
        // HMPI_Recon: measure actual speeds (here they equal base speeds).
        h.recon(10.0).expect("recon");

        // Three abstract processors with uneven work; HMPI_Group_create
        // should pick bigiron for the heavy one and skip old486 entirely.
        let model = compiled
            .instantiate(&[
                ParamValue::Int(3),
                ParamValue::Array(vec![100, 400, 150]),
                ParamValue::Int(64 * 1024),
            ])
            .expect("instantiate");

        if h.is_host() {
            println!(
                "predicted best execution time: {:.3} virtual seconds",
                h.timeof(&model).expect("timeof")
            );
        }

        let group = h.group_create(&model).expect("group_create");
        if h.is_host() {
            println!(
                "selected world ranks (by abstract processor): {:?}",
                group.members()
            );
        }

        let sum = if let Some(comm) = group.comm() {
            // Control is handed over to MPI: a normal collective.
            let s = comm
                .allreduce_eq_i64(&[h.rank() as i64], ReduceOp::Sum)
                .expect("allreduce")[0];
            Some(s)
        } else {
            None
        };

        if group.is_member() {
            h.group_free(group).expect("group_free");
        }
        h.finalize().expect("finalize");
        sum
    });

    for (rank, sum) in report.results.iter().enumerate() {
        match sum {
            Some(s) => println!("rank {rank}: member, sum of member ranks = {s}"),
            None => println!("rank {rank}: not selected"),
        }
    }
    println!("total virtual time: {:.4} s", report.makespan.as_secs());
}
