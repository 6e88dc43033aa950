//! The cost view the stand-alone `perfmodel` probes price against: a
//! [`hetsim::PairTable`] plus the hosting node of each rank, with unit
//! speeds (collective pricing involves no computation) — the same view the
//! collective engine builds for itself on every `Auto` call.

use hetsim::{NodeId, PairTable};
use perfmodel::PairCost;

/// [`PairCost`] over a pair table, by communicator rank.
#[derive(Debug, Clone)]
pub struct TableCost {
    table: PairTable,
    nodes: Vec<usize>,
}

impl TableCost {
    /// `table` must be `cluster.pair_table(nodes)` for the same `nodes`.
    pub fn new(table: PairTable, nodes: &[NodeId]) -> Self {
        TableCost {
            table,
            nodes: nodes.iter().map(|n| n.index()).collect(),
        }
    }
}

impl PairCost for TableCost {
    fn speed(&self, _proc: usize) -> f64 {
        1.0
    }
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.table.latency(src, dst)
    }
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.table.bandwidth(src, dst)
    }
    fn node_of(&self, proc: usize) -> usize {
        self.nodes[proc]
    }
}
