//! Deterministic contention arbitration: the one rule by which concurrent
//! transfers share a contended resource ([`ContentionModel`]).
//!
//! With `ParallelLinks` (the paper's switched Ethernet) every transfer
//! proceeds at full link speed; with `SerializedNic` a transfer must
//! additionally wait for both endpoints' NICs to be free; with `SharedBus`
//! for the single shared medium. A cluster may additionally model an
//! intra-node *memory bus* ([`crate::Cluster::mem_bus`]): transfers between
//! distinct ranks on the same node then serialise per node, under every
//! network model.
//!
//! Contended transfers are arbitrated in two steps, both free of wall-clock
//! races:
//!
//! 1. **Sender-side grant** ([`NetFrontier::grant`]): the send is ordered
//!    against the sending rank's own *view* of the shared resource — the
//!    busy-until frontier advanced by the rank's previous sends and matched
//!    receives. The sender stamps the message with the granted
//!    `(start, cost)` window ([`WireXfer`]).
//! 2. **Receiver-side settlement** ([`NetFrontier::settle`]): when the
//!    receiver *matches* the message it replays the stamped window against
//!    its own frontier: the transfer starts no earlier than granted and no
//!    earlier than the receiver's view of the resource frees up. The
//!    settled arrival is what the receiver's clock merges, and it advances
//!    the receiver's frontier, so fan-in to one rank serialises in match
//!    order.
//!
//! Each rank's frontier is therefore mutated only by that rank's own
//! actions, in program order. By induction over each rank's deterministic
//! program, identical seeds produce bit-identical grants, settlements,
//! virtual times, verdicts, and traces on **every** contention model — no
//! matter how the OS schedules the rank threads.
//!
//! Both consumers of the rule call the same two functions: `mpisim`'s
//! transport (one frontier per rank thread) and `perfmodel`'s collective
//! pricer (one frontier per simulated rank, replayed in schedule order).
//! Parity between measured and predicted virtual time under contention
//! holds by construction, not by keeping two copies in step.
//!
//! A frontier grows on use: its per-node tables reach only as far as the
//! highest node it has seen occupied, and a node beyond them reads as free
//! since time zero. Both consumers keep one frontier per rank, and p
//! frontiers sized to the whole cluster cost O(p × nodes) memory whether
//! or not they ever arbitrate anything.

use crate::clock::SimTime;
use crate::node::NodeId;
use crate::topology::ContentionModel;

/// The shared resource a contended transfer occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireRes {
    /// Both endpoint NICs (`SerializedNic`).
    Nic {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
    },
    /// The single shared medium (`SharedBus`).
    Bus,
    /// One node's intra-node memory bus (co-located ranks).
    Mem {
        /// The node whose bus is occupied.
        node: NodeId,
    },
}

/// A granted reservation window, stamped on the envelope by the sender and
/// settled against the receiver's frontier at match time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireXfer {
    /// Transfer start after sender-side arbitration.
    pub start: SimTime,
    /// Wire occupancy (latency + bytes/bandwidth).
    pub cost: SimTime,
    /// The resource the transfer occupies.
    pub res: WireRes,
}

/// A rank's deterministic view of the shared network resources: busy-until
/// frontiers advanced only by this rank's own sends and matched receives.
///
/// The transport keeps one per rank thread; the collective pricer keeps one
/// per *simulated* rank and replays the same two calls in schedule order,
/// which is why its predictions are bit-exact under every model.
#[derive(Clone, Debug)]
pub struct NetFrontier {
    contention: ContentionModel,
    /// Per-node NIC busy-until times, as observed by this rank; a node past
    /// the end has never been occupied (free since time zero).
    nic: Vec<SimTime>,
    /// Shared-medium busy-until time, as observed by this rank.
    bus: SimTime,
    /// Per-node memory-bus busy-until times, as observed by this rank;
    /// grows like `nic`.
    mem: Vec<SimTime>,
}

/// Node `node`'s busy-until time in a per-node table that grows on use.
#[inline]
fn busy(table: &[SimTime], node: NodeId) -> SimTime {
    table.get(node.index()).copied().unwrap_or(SimTime::ZERO)
}

/// Marks node `node` busy until `until`, growing the table to reach it.
fn set_busy(table: &mut Vec<SimTime>, node: NodeId, until: SimTime) {
    let i = node.index();
    if i >= table.len() {
        table.resize(i + 1, SimTime::ZERO);
    }
    table[i] = until;
}

impl NetFrontier {
    /// A fresh frontier: every resource free since time zero. It allocates
    /// nothing until a contended transfer first occupies a per-node
    /// resource, so a frontier that only ever sees `ParallelLinks` traffic
    /// without a memory bus never allocates.
    pub fn new(contention: ContentionModel) -> Self {
        NetFrontier {
            contention,
            nic: Vec::new(),
            bus: SimTime::ZERO,
            mem: Vec::new(),
        }
    }

    /// Sender-side grant for a transfer ready at `ready` that occupies the
    /// medium for `cost`. Returns the tentative arrival and, for contended
    /// transfers, the reservation window to stamp on the envelope (settled
    /// by the receiver via [`NetFrontier::settle`]).
    ///
    /// `src == dst` means two ranks co-located on one node: a positive cost
    /// there implies the cluster models a memory bus, which serialises per
    /// node under every network contention model. Zero-cost transfers
    /// (self-sends, free loopback) never contend.
    #[inline]
    pub fn grant(
        &mut self,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        cost: SimTime,
    ) -> (SimTime, Option<WireXfer>) {
        if cost.is_zero() {
            return (ready, None);
        }
        let (start, res) = if src == dst {
            let start = ready.max(busy(&self.mem, src));
            (start, WireRes::Mem { node: src })
        } else {
            match self.contention {
                ContentionModel::ParallelLinks => return (ready + cost, None),
                ContentionModel::SerializedNic => {
                    let start = ready.max(busy(&self.nic, src)).max(busy(&self.nic, dst));
                    (start, WireRes::Nic { src, dst })
                }
                ContentionModel::SharedBus => (ready.max(self.bus), WireRes::Bus),
            }
        };
        let arrival = start + cost;
        self.occupy(res, arrival);
        (arrival, Some(WireXfer { start, cost, res }))
    }

    /// Receiver-side settlement of a stamped reservation, called on the
    /// receiver's own thread when the envelope is *matched*: the transfer
    /// starts no earlier than the sender granted and no earlier than the
    /// receiver's view of the resource frees up. Returns the settled
    /// arrival and advances this frontier, so fan-in serialises in match
    /// order.
    #[inline]
    pub fn settle(&mut self, x: WireXfer) -> SimTime {
        let floor = match x.res {
            WireRes::Nic { src, dst } => busy(&self.nic, src).max(busy(&self.nic, dst)),
            WireRes::Bus => self.bus,
            WireRes::Mem { node } => busy(&self.mem, node),
        };
        let arrival = x.start.max(floor) + x.cost;
        self.occupy(x.res, arrival);
        arrival
    }

    fn occupy(&mut self, res: WireRes, until: SimTime) {
        match res {
            WireRes::Nic { src, dst } => {
                set_busy(&mut self.nic, src, until);
                set_busy(&mut self.nic, dst, until);
            }
            WireRes::Bus => self.bus = until,
            WireRes::Mem { node } => set_busy(&mut self.mem, node, until),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn parallel_links_do_not_contend() {
        let mut f = NetFrontier::new(ContentionModel::ParallelLinks);
        let (a1, x1) = f.grant(NodeId(0), NodeId(1), t(0.0), t(1.0));
        let (a2, x2) = f.grant(NodeId(2), NodeId(3), t(0.0), t(1.0));
        let (a3, x3) = f.grant(NodeId(0), NodeId(1), t(0.0), t(1.0));
        assert_eq!(a1, t(1.0));
        assert_eq!(a2, t(1.0));
        assert_eq!(a3, t(1.0)); // even the same pair: switch model
        assert!(x1.is_none() && x2.is_none() && x3.is_none());
    }

    #[test]
    fn a_frontier_grows_only_to_the_nodes_it_occupies() {
        // Uncontended traffic never touches a per-node table.
        let mut f = NetFrontier::new(ContentionModel::ParallelLinks);
        f.grant(NodeId(0), NodeId(900), t(0.0), t(1.0));
        assert_eq!((f.nic.capacity(), f.mem.capacity()), (0, 0));
        // A contended one reaches as far as its highest endpoint, and a
        // node beyond the table is free.
        let mut f = NetFrontier::new(ContentionModel::SerializedNic);
        let (a1, _) = f.grant(NodeId(5), NodeId(2), t(0.0), t(1.0));
        assert_eq!((a1, f.nic.len(), f.mem.len()), (t(1.0), 6, 0));
        let (a2, _) = f.grant(NodeId(7), NodeId(6), t(0.0), t(1.0));
        assert_eq!((a2, f.nic.len()), (t(1.0), 8));
        let (a3, _) = f.grant(NodeId(3), NodeId(0), t(0.0), t(1.0));
        assert_eq!((a3, f.nic.len()), (t(1.0), 8));
    }

    #[test]
    fn serialized_nic_queues_transfers_sharing_an_endpoint() {
        let mut f = NetFrontier::new(ContentionModel::SerializedNic);
        let (a1, x1) = f.grant(NodeId(0), NodeId(1), t(0.0), t(1.0));
        assert_eq!(a1, t(1.0));
        assert!(x1.is_some());
        // Shares node 0's NIC: must wait.
        let (a2, _) = f.grant(NodeId(0), NodeId(2), t(0.0), t(1.0));
        assert_eq!(a2, t(2.0));
        // Disjoint pair: proceeds immediately.
        let (a3, _) = f.grant(NodeId(3), NodeId(2), t(2.0), t(1.0));
        assert_eq!(a3, t(3.0));
    }

    #[test]
    fn shared_bus_serialises_everything() {
        let mut f = NetFrontier::new(ContentionModel::SharedBus);
        let (a1, _) = f.grant(NodeId(0), NodeId(1), t(0.0), t(1.0));
        let (a2, _) = f.grant(NodeId(2), NodeId(3), t(0.0), t(1.0));
        assert_eq!(a1, t(1.0));
        assert_eq!(a2, t(2.0));
    }

    #[test]
    fn zero_cost_transfers_never_contend() {
        let mut f = NetFrontier::new(ContentionModel::SharedBus);
        let (a1, x1) = f.grant(NodeId(0), NodeId(0), t(3.0), SimTime::ZERO);
        let (a2, x2) = f.grant(NodeId(0), NodeId(0), t(3.0), SimTime::ZERO);
        assert_eq!(a1, t(3.0));
        assert_eq!(a2, t(3.0));
        assert!(x1.is_none() && x2.is_none());
    }

    #[test]
    fn mem_bus_serialises_co_located_ranks_under_any_model() {
        // A positive same-node cost means the cluster models a memory bus;
        // it serialises regardless of the network contention model.
        for model in [
            ContentionModel::ParallelLinks,
            ContentionModel::SerializedNic,
            ContentionModel::SharedBus,
        ] {
            let mut f = NetFrontier::new(model);
            let (a1, x1) = f.grant(NodeId(0), NodeId(0), t(0.0), t(1.0));
            let (a2, _) = f.grant(NodeId(0), NodeId(0), t(0.0), t(1.0));
            assert_eq!(a1, t(1.0), "{model:?}");
            assert_eq!(a2, t(2.0), "{model:?}");
            assert_eq!(
                x1.unwrap().res,
                WireRes::Mem { node: NodeId(0) },
                "{model:?}"
            );
            // The other node's bus is untouched.
            let (b1, _) = f.grant(NodeId(1), NodeId(1), t(0.0), t(1.0));
            assert_eq!(b1, t(1.0), "{model:?}");
        }
    }

    #[test]
    fn settlement_serialises_fan_in_in_match_order() {
        // Two senders each grant against their own (empty) frontier: both
        // windows start at 0. The receiver settles them in match order and
        // its frontier serialises the bus deterministically.
        let mut s0 = NetFrontier::new(ContentionModel::SharedBus);
        let mut s1 = NetFrontier::new(ContentionModel::SharedBus);
        let (_, x0) = s0.grant(NodeId(0), NodeId(2), t(0.0), t(1.0));
        let (_, x1) = s1.grant(NodeId(1), NodeId(2), t(0.0), t(1.0));
        let mut recv = NetFrontier::new(ContentionModel::SharedBus);
        let a0 = recv.settle(x0.unwrap());
        let a1 = recv.settle(x1.unwrap());
        assert_eq!(a0, t(1.0));
        assert_eq!(a1, t(2.0)); // queued behind the first settled window
        // The reverse match order yields the mirror serialisation: the
        // outcome depends only on match order, not on OS-thread arrival.
        let mut recv2 = NetFrontier::new(ContentionModel::SharedBus);
        let (_, y0) = NetFrontier::new(ContentionModel::SharedBus)
            .grant(NodeId(0), NodeId(2), t(0.0), t(1.0));
        let (_, y1) = NetFrontier::new(ContentionModel::SharedBus)
            .grant(NodeId(1), NodeId(2), t(0.0), t(1.0));
        let b1 = recv2.settle(y1.unwrap());
        let b0 = recv2.settle(y0.unwrap());
        assert_eq!(b1, t(1.0));
        assert_eq!(b0, t(2.0));
    }

    #[test]
    fn settlement_does_not_double_charge_sequential_traffic() {
        // Ping-pong between two ranks: the sender's grant already accounts
        // for its own previous transfers; settlement takes the max, not the
        // sum, so sequential traffic costs exactly what the old global
        // arbiter charged.
        let mut a = NetFrontier::new(ContentionModel::SerializedNic);
        let mut b = NetFrontier::new(ContentionModel::SerializedNic);
        let (_, x) = a.grant(NodeId(0), NodeId(1), t(0.0), t(1.0));
        let arr = b.settle(x.unwrap());
        assert_eq!(arr, t(1.0));
        let (_, y) = b.grant(NodeId(1), NodeId(0), arr, t(1.0));
        let back = a.settle(y.unwrap());
        assert_eq!(back, t(2.0));
    }

    /// Two transfers ready at the identical instant on the same shared
    /// resource: the grant issued first occupies the resource first, the
    /// second queues behind it. The tie falls to *call order* — a rank's
    /// own program order — never to map iteration or host scheduling, on
    /// every contending resource kind.
    #[test]
    fn grant_ties_resolve_in_call_order() {
        // Shared bus.
        let mut f = NetFrontier::new(ContentionModel::SharedBus);
        let (a1, _) = f.grant(NodeId(0), NodeId(1), t(1.0), t(0.5));
        let (a2, _) = f.grant(NodeId(0), NodeId(2), t(1.0), t(0.5));
        assert_eq!((a1, a2), (t(1.5), t(2.0)));
        // Serialized NIC, same endpoint pair.
        let mut f = NetFrontier::new(ContentionModel::SerializedNic);
        let (a1, _) = f.grant(NodeId(0), NodeId(1), t(1.0), t(0.5));
        let (a2, _) = f.grant(NodeId(0), NodeId(1), t(1.0), t(0.5));
        assert_eq!((a1, a2), (t(1.5), t(2.0)));
        // Memory bus: co-located ranks contend per node, call order again.
        let mut f = NetFrontier::new(ContentionModel::ParallelLinks);
        let (a1, _) = f.grant(NodeId(2), NodeId(2), t(1.0), t(0.5));
        let (a2, _) = f.grant(NodeId(2), NodeId(2), t(1.0), t(0.5));
        assert_eq!((a1, a2), (t(1.5), t(2.0)));
    }

    /// Settlement ties at the receiver: two stamps with the identical
    /// granted start settle in match order, and the settled arrivals are
    /// a pure function of (stamps, match order) — re-settling the same
    /// sequence on a fresh frontier reproduces them bit-for-bit.
    #[test]
    fn settle_ties_resolve_in_match_order_reproducibly() {
        let stamp = |start: f64| WireXfer {
            start: t(start),
            cost: t(0.25),
            res: WireRes::Bus,
        };
        let run = || {
            let mut f = NetFrontier::new(ContentionModel::SharedBus);
            [f.settle(stamp(1.0)), f.settle(stamp(1.0)), f.settle(stamp(1.0))]
        };
        let first = run();
        assert_eq!(first, [t(1.25), t(1.5), t(1.75)]);
        assert_eq!(first, run(), "settlement must be schedule-independent");
    }
}
