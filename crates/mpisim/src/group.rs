//! MPI process groups.
//!
//! A [`Group`] is an ordered set of world ranks. The paper leans on MPI's
//! group machinery — "it is relatively straightforward for application
//! programmers to perform such group operations by obtaining the groups
//! associated with the MPI communicator given by `HMPI_Get_comm`" — so the
//! full constructor family is implemented: set-like operations (`union`,
//! `intersection`, `difference`), subsetting (`incl`, `excl`), range
//! operations (`range_incl`, `range_excl`), plus `translate_ranks` and
//! `compare`.

use crate::error::{MpiError, MpiResult};

/// Result of [`Group::compare`], mirroring `MPI_Group_compare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupCompare {
    /// Same members in the same order (`MPI_IDENT`).
    Ident,
    /// Same members, different order (`MPI_SIMILAR`).
    Similar,
    /// Different membership (`MPI_UNEQUAL`).
    Unequal,
}

/// The value `translate_ranks` reports for a rank with no image
/// (`MPI_UNDEFINED`).
pub const UNDEFINED: isize = -1;

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
    pub fn world(n: usize) -> Self {
        Group {
            members: (0..n).collect(),
        }
    }

    /// Number of members (`MPI_Group_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// True if the group has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// This process's group rank, given its world rank (`MPI_Group_rank`);
    /// `None` if not a member.
    pub fn rank_of_world(&self, world: usize) -> Option<usize> {
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

    /// The subgroup formed by the listed group ranks, in the listed order
    /// (`MPI_Group_incl`).
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] on out-of-range or duplicate ranks.
    pub fn incl(&self, ranks: &[usize]) -> MpiResult<Group> {
        let mut members = Vec::with_capacity(ranks.len());
        let mut seen = std::collections::HashSet::with_capacity(ranks.len());
        for &r in ranks {
            if r >= self.size() {
                return Err(MpiError::InvalidGroup(format!(
                    "rank {r} out of range for group of size {}",
                    self.size()
                )));
            }
            if !seen.insert(r) {
                return Err(MpiError::InvalidGroup(format!("rank {r} listed twice")));
            }
            members.push(self.members[r]);
        }
        Ok(Group { members })
    }

    /// The subgroup formed by removing the listed group ranks
    /// (`MPI_Group_excl`); remaining members keep their relative order.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] on out-of-range or duplicate ranks.
    pub fn excl(&self, ranks: &[usize]) -> MpiResult<Group> {
        let mut drop = vec![false; self.size()];
        for &r in ranks {
            if r >= self.size() {
                return Err(MpiError::InvalidGroup(format!(
                    "rank {r} out of range for group of size {}",
                    self.size()
                )));
            }
            if drop[r] {
                return Err(MpiError::InvalidGroup(format!("rank {r} listed twice")));
            }
            drop[r] = true;
        }
        Ok(Group {
            members: self
                .members
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop[*i])
                .map(|(_, &m)| m)
                .collect(),
        })
    }

    /// `MPI_Group_range_incl`: each `(first, last, stride)` triple expands to
    /// the ranks `first, first+stride, ...` up to and including `last`.
    /// Strides may be negative for descending ranges.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] on zero strides, out-of-range ranks or
    /// duplicates across the expansion.
    pub fn range_incl(&self, ranges: &[(isize, isize, isize)]) -> MpiResult<Group> {
        let ranks = self.expand_ranges(ranges)?;
        self.incl(&ranks)
    }

    /// `MPI_Group_range_excl`: the complement of the expanded ranges.
    ///
    /// # Errors
    /// Same conditions as [`Group::range_incl`].
    pub fn range_excl(&self, ranges: &[(isize, isize, isize)]) -> MpiResult<Group> {
        let ranks = self.expand_ranges(ranges)?;
        self.excl(&ranks)
    }

    fn expand_ranges(&self, ranges: &[(isize, isize, isize)]) -> MpiResult<Vec<usize>> {
        let mut out = Vec::new();
        for &(first, last, stride) in ranges {
            if stride == 0 {
                return Err(MpiError::InvalidGroup("zero stride in range".into()));
            }
            let mut r = first;
            while (stride > 0 && r <= last) || (stride < 0 && r >= last) {
                if r < 0 {
                    return Err(MpiError::InvalidGroup(format!("negative rank {r} in range")));
                }
                out.push(r as usize);
                r += stride;
            }
        }
        Ok(out)
    }

    /// `MPI_Group_translate_ranks`: for each rank of `self`, its rank in
    /// `other`, or [`UNDEFINED`] if the member is absent there.
    pub fn translate_ranks(&self, ranks: &[usize], other: &Group) -> Vec<isize> {
        ranks
            .iter()
            .map(|&r| {
                self.members
                    .get(r)
                    .and_then(|&w| other.rank_of_world(w))
                    .map_or(UNDEFINED, |x| x as isize)
            })
            .collect()
    }

    /// `MPI_Group_compare`.
    pub fn compare(&self, other: &Group) -> GroupCompare {
        if self.members == other.members {
            return GroupCompare::Ident;
        }
        if self.size() == other.size() {
            let mut a = self.members.clone();
            let mut b = other.members.clone();
            a.sort_unstable();
            b.sort_unstable();
            if a == b {
                return GroupCompare::Similar;
            }
        }
        GroupCompare::Unequal
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
    fn incl_reorders() {
        let a = g(&[10, 20, 30, 40]);
        let sub = a.incl(&[3, 0]).unwrap();
        assert_eq!(sub.world_ranks(), &[40, 10]);
    }

    #[test]
    fn incl_rejects_bad_ranks() {
        let a = g(&[10, 20]);
        assert!(a.incl(&[2]).is_err());
        assert!(a.incl(&[0, 0]).is_err());
    }

    #[test]
    fn excl_preserves_order() {
        let a = g(&[10, 20, 30, 40]);
        let sub = a.excl(&[1, 3]).unwrap();
        assert_eq!(sub.world_ranks(), &[10, 30]);
    }

    #[test]
    fn range_incl_ascending_and_descending() {
        let a = Group::world(10);
        let sub = a.range_incl(&[(0, 6, 2)]).unwrap();
        assert_eq!(sub.world_ranks(), &[0, 2, 4, 6]);
        let sub = a.range_incl(&[(5, 3, -1)]).unwrap();
        assert_eq!(sub.world_ranks(), &[5, 4, 3]);
    }

    #[test]
    fn range_excl_complement() {
        let a = Group::world(6);
        let sub = a.range_excl(&[(1, 5, 2)]).unwrap(); // drop 1,3,5
        assert_eq!(sub.world_ranks(), &[0, 2, 4]);
    }

    #[test]
    fn range_zero_stride_rejected() {
        let a = Group::world(4);
        assert!(a.range_incl(&[(0, 3, 0)]).is_err());
    }

    #[test]
    fn translate_ranks_finds_images() {
        let a = g(&[3, 1, 4]);
        let b = g(&[4, 3]);
        assert_eq!(a.translate_ranks(&[0, 1, 2], &b), vec![1, UNDEFINED, 0]);
    }

    #[test]
    fn compare_all_three_cases() {
        let a = g(&[1, 2, 3]);
        assert_eq!(a.compare(&g(&[1, 2, 3])), GroupCompare::Ident);
        assert_eq!(a.compare(&g(&[3, 2, 1])), GroupCompare::Similar);
        assert_eq!(a.compare(&g(&[1, 2, 4])), GroupCompare::Unequal);
        assert_eq!(a.compare(&g(&[1, 2])), GroupCompare::Unequal);
    }

    #[test]
    fn empty_group_behaves() {
        let e = Group::empty();
        assert!(e.is_empty());
        assert_eq!(e.compare(&Group::empty()), GroupCompare::Ident);
        let a = g(&[1]);
        assert_eq!(a.intersection(&e).size(), 0);
        assert_eq!(a.union(&e).world_ranks(), &[1]);
    }
}
