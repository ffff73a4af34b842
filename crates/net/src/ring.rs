//! The cluster hash ring: deterministic fingerprint → node ownership.
//!
//! A [`Ring`] is an epoch-numbered membership list expanded into a
//! consistent-hash ring with virtual nodes. Every [`Fingerprint`] hashes
//! to a point on the ring and is owned by the first member point at or
//! after it (wrapping). Ownership is a pure function of `(members, vnodes)` —
//! every node and every client holding the same ring computes the same
//! owner, which is what keeps dedup and the result cache single-home
//! per trace.
//!
//! Membership changes travel as whole rings under a monotonically
//! increasing `epoch`; a peer holding a lower epoch is stale and must
//! adopt the newer ring. The wire encoding lives in
//! [`wire`](crate::wire) (`HelloAck` carries the ring, `RingChanged`
//! pushes updates); this module is pure data + math so the server, the
//! client, and `beer_cluster` all share one definition of "who owns
//! this trace".

use beer_core::trace::Fingerprint;
use std::fmt;

/// Ring membership cap — a lying wire peer cannot make us expand an
/// absurd ring.
pub const MAX_RING_MEMBERS: usize = 1024;
/// Virtual-node cap per member (see [`MAX_RING_MEMBERS`]).
pub const MAX_RING_VNODES: u32 = 1024;
/// Cap on `members × vnodes` — the expanded point table stays small.
pub const MAX_RING_POINTS: usize = 1 << 20;

/// One cluster node as the ring sees it: a stable `name` (hashed for
/// ownership, so ownership survives address changes) and the `addr` the
/// node's beer-wire listener is reachable at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingMember {
    /// Stable node name — the hash-ring key.
    pub name: String,
    /// `host:port` of the node's wire listener.
    pub addr: String,
}

impl RingMember {
    /// A member from anything stringy.
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> Self {
        RingMember {
            name: name.into(),
            addr: addr.into(),
        }
    }
}

/// Why a membership list does not make a valid ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingError {
    /// A ring needs at least one member.
    NoMembers,
    /// More members than [`MAX_RING_MEMBERS`].
    TooManyMembers {
        /// Members offered.
        count: usize,
    },
    /// `vnodes` outside `1..=MAX_RING_VNODES`, or `members × vnodes`
    /// over [`MAX_RING_POINTS`].
    BadVnodes {
        /// Virtual nodes requested.
        vnodes: u32,
    },
    /// A member with an empty name or address.
    EmptyMember,
    /// Two members sharing a name.
    DuplicateName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::NoMembers => write!(f, "a ring needs at least one member"),
            RingError::TooManyMembers { count } => {
                write!(f, "{count} members over the cap of {MAX_RING_MEMBERS}")
            }
            RingError::BadVnodes { vnodes } => {
                write!(
                    f,
                    "vnodes {vnodes} outside 1..={MAX_RING_VNODES} (or point cap)"
                )
            }
            RingError::EmptyMember => write!(f, "member with an empty name or address"),
            RingError::DuplicateName { name } => {
                write!(f, "duplicate member name {name:?}")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// An epoch-numbered consistent-hash ring (see the module docs).
///
/// Construction validates and *sorts members by name*, so ownership —
/// including hash-point ties — is independent of the order members were
/// listed in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    epoch: u64,
    vnodes: u32,
    members: Vec<RingMember>,
    /// `(point, member index)` sorted by point then index.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Builds (and validates) a ring.
    ///
    /// # Errors
    ///
    /// A [`RingError`] naming the first structural problem.
    pub fn new(epoch: u64, vnodes: u32, members: Vec<RingMember>) -> Result<Ring, RingError> {
        if members.is_empty() {
            return Err(RingError::NoMembers);
        }
        if members.len() > MAX_RING_MEMBERS {
            return Err(RingError::TooManyMembers {
                count: members.len(),
            });
        }
        if vnodes == 0
            || vnodes > MAX_RING_VNODES
            || members.len().saturating_mul(vnodes as usize) > MAX_RING_POINTS
        {
            return Err(RingError::BadVnodes { vnodes });
        }
        let mut members = members;
        members.sort_by(|a, b| a.name.cmp(&b.name));
        for pair in members.windows(2) {
            if pair[0].name == pair[1].name {
                return Err(RingError::DuplicateName {
                    name: pair[0].name.clone(),
                });
            }
        }
        if members
            .iter()
            .any(|m| m.name.is_empty() || m.addr.is_empty())
        {
            return Err(RingError::EmptyMember);
        }
        let mut points = Vec::with_capacity(members.len() * vnodes as usize);
        for (idx, member) in members.iter().enumerate() {
            for v in 0..vnodes {
                points.push((member_point(&member.name, v), idx as u32));
            }
        }
        points.sort_unstable();
        Ok(Ring {
            epoch,
            vnodes,
            members,
            points,
        })
    }

    /// The membership epoch. Higher wins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The members, sorted by name.
    pub fn members(&self) -> &[RingMember] {
        &self.members
    }

    /// Looks a member up by name.
    pub fn member(&self, name: &str) -> Option<&RingMember> {
        self.members.iter().find(|m| m.name == name)
    }

    /// The member owning this fingerprint: the first ring point at or
    /// after the fingerprint's point, wrapping past the top.
    pub fn owner(&self, fingerprint: Fingerprint) -> &RingMember {
        let p = fingerprint_point(fingerprint);
        let i = self.points.partition_point(|&(point, _)| point < p);
        let (_, idx) = self.points[if i == self.points.len() { 0 } else { i }];
        &self.members[idx as usize]
    }

    /// True if `name` owns `fingerprint` under this ring.
    pub fn owns(&self, name: &str, fingerprint: Fingerprint) -> bool {
        self.owner(fingerprint).name == name
    }
}

/// FNV-1a 64 — the workspace's standing hash for small keys.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A 64-bit finalizer (splitmix-style) — FNV alone avalanches poorly on
/// short inputs like `name ‖ vnode`, which would skew the ring.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn member_point(name: &str, vnode: u32) -> u64 {
    let mut h = fnv1a64(name.as_bytes());
    h ^= 0xff; // separator: "ab"+v and "a"+"bv" must not collide
    for &b in &vnode.to_be_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    mix(h)
}

fn fingerprint_point(fp: Fingerprint) -> u64 {
    mix((fp.0 as u64) ^ ((fp.0 >> 64) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u128) -> Fingerprint {
        Fingerprint(v)
    }

    fn members(names: &[&str]) -> Vec<RingMember> {
        names
            .iter()
            .map(|n| RingMember::new(*n, format!("{n}.example:9000")))
            .collect()
    }

    #[test]
    fn validation_rejects_bad_memberships() {
        assert_eq!(Ring::new(1, 64, vec![]), Err(RingError::NoMembers));
        assert_eq!(
            Ring::new(1, 0, members(&["a"])),
            Err(RingError::BadVnodes { vnodes: 0 })
        );
        assert_eq!(
            Ring::new(1, MAX_RING_VNODES + 1, members(&["a"])),
            Err(RingError::BadVnodes {
                vnodes: MAX_RING_VNODES + 1
            })
        );
        assert_eq!(
            Ring::new(1, 64, members(&["a", "b", "a"])),
            Err(RingError::DuplicateName {
                name: "a".to_string()
            })
        );
        assert_eq!(
            Ring::new(1, 64, vec![RingMember::new("", "x:1")]),
            Err(RingError::EmptyMember)
        );
        assert_eq!(
            Ring::new(1, 64, vec![RingMember::new("a", "")]),
            Err(RingError::EmptyMember)
        );
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = Ring::new(1, 8, members(&["solo"])).unwrap();
        for i in 0..1000u128 {
            assert_eq!(ring.owner(fp(i * 7919)).name, "solo");
        }
    }

    #[test]
    fn ownership_is_independent_of_member_order() {
        let a = Ring::new(1, 64, members(&["n0", "n1", "n2", "n3"])).unwrap();
        let b = Ring::new(1, 64, members(&["n3", "n1", "n0", "n2"])).unwrap();
        assert_eq!(a, b);
        for i in 0..2000u128 {
            let f = fp(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(a.owner(f), b.owner(f));
        }
    }

    #[test]
    fn load_spreads_across_members() {
        let ring = Ring::new(1, 128, members(&["n0", "n1", "n2", "n3"])).unwrap();
        let mut counts = [0usize; 4];
        for i in 0..8000u128 {
            let f = fp(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i << 64));
            let owner = ring.owner(f);
            let idx = ring
                .members()
                .iter()
                .position(|m| m.name == owner.name)
                .unwrap();
            counts[idx] += 1;
        }
        // Perfect balance is 2000 each; vnode hashing should keep every
        // member within a loose 2x band of fair share.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1000..=4000).contains(&c),
                "member {i} owns {c} of 8000 keys — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_member_only_moves_its_keys() {
        let full = Ring::new(1, 128, members(&["n0", "n1", "n2"])).unwrap();
        let reduced = Ring::new(2, 128, members(&["n0", "n1"])).unwrap();
        let mut moved = 0usize;
        let total = 4000usize;
        for i in 0..total as u128 {
            let f = fp(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let before = full.owner(f).name.clone();
            let after = reduced.owner(f).name.clone();
            if before == "n2" {
                moved += 1;
                assert_ne!(after, "n2");
            } else {
                // Consistent hashing: surviving members keep their keys.
                assert_eq!(before, after, "key {i} moved between surviving members");
            }
        }
        assert!(moved > 0, "n2 owned nothing — skew");
    }

    #[test]
    fn owns_matches_owner() {
        let ring = Ring::new(3, 64, members(&["a", "b"])).unwrap();
        for i in 0..500u128 {
            let f = fp(i * 131);
            let owner = ring.owner(f).name.clone();
            assert!(ring.owns(&owner, f));
            assert!(!ring.owns("nobody", f));
        }
    }
}
