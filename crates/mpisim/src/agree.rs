//! ULFM-style agreement (`MPI_Comm_agree` analogue) over shared memory.
//!
//! Agreement is the primitive that lets survivors of a failed collective
//! reach a *consistent* verdict: every live member deposits a boolean
//! contribution into a per-round slot keyed by `(collective context, round
//! sequence)`, and the round completes once every member has either
//! deposited or been observed dead. The outcome — the AND-fold of the
//! deposited flags, the exact set of members that never deposited, and the
//! round's virtual completion time — is computed from the slot alone, so
//! every survivor reads the *same* outcome by construction (unanimity is
//! structural, not negotiated).
//!
//! Determinism: whether a member deposits or dies first is decided by the
//! fault plan in virtual time, not by thread scheduling, so the same seed
//! always yields the same verdict and failed set. Real time only affects
//! *when* the outcome is observed, never *what* it is.

use hetsim::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Key of one agreement round: `(collective-plane context id, sequence)`.
pub(crate) type AgreeKey = (u64, u64);

/// The agreed outcome of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agreement {
    /// AND-fold of every deposited contribution.
    pub flag: bool,
    /// World ranks of members that never deposited (observed dead instead),
    /// in ascending order. A member that deposited and died *afterwards*
    /// still counts as agreed — its contribution was made.
    pub failed: Vec<usize>,
    /// Virtual completion time: the maximum deposit time. Every survivor
    /// merges its clock to this, so the round is also a synchronisation
    /// point among the survivors.
    pub at: SimTime,
}

/// One round's shared slot.
#[derive(Debug)]
struct AgreeSlot {
    /// Member world ranks, in communicator-rank order.
    members: Vec<usize>,
    /// Per-member deposit `(flag, deposit virtual time)`, by comm rank.
    deposits: Vec<Option<(bool, SimTime)>>,
}

/// The universe-wide agreement registry: `(ctx, seq)` → slot.
#[derive(Debug, Default)]
pub(crate) struct AgreeTable {
    inner: Mutex<HashMap<AgreeKey, AgreeSlot>>,
}

impl AgreeTable {
    pub(crate) fn new() -> Self {
        AgreeTable::default()
    }

    /// Records `me`'s contribution for round `key`, creating the slot on
    /// first touch. Idempotent per member (a re-deposit keeps the first
    /// value). Returns whether the round is complete now: every member has
    /// deposited or is dead per `is_dead`.
    pub(crate) fn deposit(
        &self,
        key: AgreeKey,
        members: &[usize],
        me: usize,
        flag: bool,
        now: SimTime,
        is_dead: impl Fn(usize) -> bool,
    ) -> bool {
        let mut t = self.inner.lock();
        let slot = t.entry(key).or_insert_with(|| AgreeSlot {
            members: members.to_vec(),
            deposits: vec![None; members.len()],
        });
        let rank = slot
            .members
            .iter()
            .position(|&w| w == me)
            .expect("depositor is a member of the agreeing communicator");
        if slot.deposits[rank].is_none() {
            slot.deposits[rank] = Some((flag, now));
        }
        (slot.members.iter().zip(&slot.deposits)).all(|(&w, d)| d.is_some() || is_dead(w))
    }

    /// The round's outcome, if every member has deposited or is dead per
    /// `is_dead`. `None` while some live member has yet to arrive.
    pub(crate) fn try_outcome(
        &self,
        key: AgreeKey,
        is_dead: impl Fn(usize) -> bool,
    ) -> Option<Agreement> {
        let t = self.inner.lock();
        let slot = t.get(&key)?;
        let mut flag = true;
        let mut failed = Vec::new();
        let mut at = SimTime::ZERO;
        for (i, &w) in slot.members.iter().enumerate() {
            match slot.deposits[i] {
                Some((f, vt)) => {
                    flag &= f;
                    at = at.max(vt);
                }
                None if is_dead(w) => failed.push(w),
                None => return None,
            }
        }
        Some(Agreement { flag, failed, at })
    }

    /// World ranks of *live* members still missing from round `key` — the
    /// ranks whose deposit the round is genuinely waiting on. Dead
    /// non-depositors do not block completion, so they are excluded. Used
    /// by the quiescence classifier to build exact wait edges.
    pub(crate) fn pending_live(
        &self,
        key: AgreeKey,
        is_dead: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let t = self.inner.lock();
        let Some(slot) = t.get(&key) else {
            return Vec::new();
        };
        slot.members
            .iter()
            .enumerate()
            .filter(|&(i, &w)| slot.deposits[i].is_none() && !is_dead(w))
            .map(|(_, &w)| w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_when_all_deposit() {
        let t = AgreeTable::new();
        let members = [3usize, 5, 7];
        let key = (11, 0);
        assert!(!t.deposit(key, &members, 5, true, SimTime::from_secs(1.0), |_| false));
        assert!(t.try_outcome(key, |_| false).is_none());
        assert!(!t.deposit(key, &members, 3, true, SimTime::from_secs(2.0), |_| false));
        assert!(t.deposit(key, &members, 7, false, SimTime::from_secs(1.5), |_| false));
        let a = t.try_outcome(key, |_| false).unwrap();
        assert!(!a.flag, "AND-fold over contributions");
        assert!(a.failed.is_empty());
        assert_eq!(a.at, SimTime::from_secs(2.0));
    }

    #[test]
    fn dead_members_do_not_block_completion() {
        let t = AgreeTable::new();
        let members = [0usize, 1, 2];
        let key = (13, 4);
        assert!(!t.deposit(key, &members, 0, true, SimTime::from_secs(1.0), |_| false));
        // A dead member's missing deposit does not hold the round open.
        assert!(t.deposit(key, &members, 2, true, SimTime::from_secs(3.0), |w| w == 1));
        assert!(t.try_outcome(key, |_| false).is_none());
        assert_eq!(t.pending_live(key, |w| w == 1), Vec::<usize>::new());
        let a = t.try_outcome(key, |w| w == 1).unwrap();
        assert!(a.flag);
        assert_eq!(a.failed, vec![1]);
        assert_eq!(a.at, SimTime::from_secs(3.0));
    }

    #[test]
    fn deposit_then_death_still_counts_as_agreed() {
        let t = AgreeTable::new();
        let members = [0usize, 1];
        let key = (2, 0);
        t.deposit(key, &members, 0, false, SimTime::from_secs(1.0), |_| false);
        t.deposit(key, &members, 1, true, SimTime::from_secs(2.0), |_| false);
        // Member 1 deposited, then died: its contribution stands.
        let a = t.try_outcome(key, |w| w == 1).unwrap();
        assert!(!a.flag);
        assert!(a.failed.is_empty());
    }
}
