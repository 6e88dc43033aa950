//! MPI process groups.
//!
//! A [`Group`] is an ordered set of world ranks. The paper leans on MPI's
//! group machinery — "it is relatively straightforward for application
//! programmers to perform such group operations by obtaining the groups
//! associated with the MPI communicator given by `HMPI_Get_comm`". HMPI's
//! runtime builds every group it creates from an explicit member list
//! ([`Group::from_world_ranks`]); communicators translate ranks through it
//! (`world_rank_of`, `rank_of_world`, `contains_world`); and the set
//! operations `union`, `intersection` and `difference` are there for
//! applications that regroup a communicator's members.

use crate::error::{MpiError, MpiResult};

/// An ordered set of world ranks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// The empty group (`MPI_GROUP_EMPTY`).
    pub fn empty() -> Self {
        Group {
            members: Vec::new(),
        }
    }

    /// A group over the given world ranks, in the given order.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] on duplicate entries.
    pub fn from_world_ranks(members: Vec<usize>) -> MpiResult<Self> {
        let mut seen = std::collections::HashSet::with_capacity(members.len());
        for &m in &members {
            if !seen.insert(m) {
                return Err(MpiError::InvalidGroup(format!(
                    "world rank {m} appears more than once"
                )));
            }
        }
        Ok(Group { members })
    }

    /// The group `{0, 1, .., n-1}` — the world group of an `n`-rank universe.
    pub(crate) fn world(n: usize) -> Self {
        Group {
            members: (0..n).collect(),
        }
    }

    /// Number of members (`MPI_Group_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The world ranks, in group-rank order.
    #[inline]
    pub fn world_ranks(&self) -> &[usize] {
        &self.members
    }

    /// The world rank of the member with group rank `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[inline]
    pub(crate) fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// This process's group rank, given its world rank (`MPI_Group_rank`);
    /// `None` if not a member.
    pub(crate) fn rank_of_world(&self, world: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == world)
    }

    /// Set union preserving the order "members of `self` first, then members
    /// of `other` not in `self`" (`MPI_Group_union`).
    pub fn union(&self, other: &Group) -> Group {
        let mut members = self.members.clone();
        for &m in &other.members {
            if !self.members.contains(&m) {
                members.push(m);
            }
        }
        Group { members }
    }

    /// Members of `self` that are also in `other`, in `self`'s order
    /// (`MPI_Group_intersection`).
    pub fn intersection(&self, other: &Group) -> Group {
        Group {
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| other.members.contains(m))
                .collect(),
        }
    }

    /// Members of `self` not in `other`, in `self`'s order
    /// (`MPI_Group_difference`).
    pub fn difference(&self, other: &Group) -> Group {
        Group {
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| !other.members.contains(m))
                .collect(),
        }
    }

    /// True if `world` is a member.
    pub fn contains_world(&self, world: usize) -> bool {
        self.members.contains(&world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: &[usize]) -> Group {
        Group::from_world_ranks(v.to_vec()).unwrap()
    }

    #[test]
    fn world_group_is_identity_ordered() {
        let w = Group::world(4);
        assert_eq!(w.size(), 4);
        assert_eq!(w.world_ranks(), &[0, 1, 2, 3]);
        assert_eq!(w.rank_of_world(2), Some(2));
    }

    #[test]
    fn duplicates_rejected() {
        assert!(Group::from_world_ranks(vec![1, 2, 1]).is_err());
    }

    #[test]
    fn union_keeps_left_order_then_new_members() {
        let a = g(&[3, 1]);
        let b = g(&[1, 5, 3, 7]);
        assert_eq!(a.union(&b).world_ranks(), &[3, 1, 5, 7]);
    }

    #[test]
    fn intersection_and_difference() {
        let a = g(&[0, 2, 4, 6]);
        let b = g(&[4, 0, 5]);
        assert_eq!(a.intersection(&b).world_ranks(), &[0, 4]);
        assert_eq!(a.difference(&b).world_ranks(), &[2, 6]);
        assert_eq!(b.difference(&a).world_ranks(), &[5]);
    }

    #[test]
    fn empty_group_behaves() {
        let e = Group::empty();
        assert_eq!(e.size(), 0);
        let a = g(&[1]);
        assert_eq!(a.intersection(&e).size(), 0);
        assert_eq!(a.union(&e).world_ranks(), &[1]);
    }
}
