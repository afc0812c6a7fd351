//! The shared cache system: CPC banks + IP cache + coherence.
//!
//! All data traffic between processors and shared memory goes through the
//! processors' caches: the CEs share the four-way-interleaved CE cache
//! (two CPC modules), the IPs share (here, an aggregated) IP cache, and
//! "the caches maintain data coherency by requiring that a cache possess a
//! 'unique' copy of data before modifying it" (Appendix C). This module
//! implements both caches and that ownership rule, and reports the
//! memory-bus transactions each access implies so the cluster can schedule
//! them with real contention.

use crate::addr::LineId;
use crate::cache::SetAssocCache;
use crate::config::CacheGeometry;
use serde::{Deserialize, Serialize};

/// A memory-bus transaction implied by a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusTxn {
    /// Line fetch into the CE cache (a CE-cache miss — the numerator of
    /// the study's Missrate).
    Fetch,
    /// Dirty line written back to memory.
    WriteBack,
    /// Ownership traffic with no data payload (upgrade / invalidate).
    Coherence,
    /// Line fetch into the IP cache.
    IpFetch,
}

/// The most bus transactions one access can imply: coherence traffic,
/// the other cache's dirty flush, the fetch, and a dirty victim's
/// write-back.
pub const MAX_BUS_TXNS: usize = 4;

/// Fixed-capacity, inline list of the bus transactions one access implies.
/// Accesses happen nearly every bus cycle, so the outcome must not touch
/// the heap. Derefs to a slice for iteration and comparison.
#[derive(Debug, Clone, Copy)]
pub struct BusList {
    items: [BusTxn; MAX_BUS_TXNS],
    len: u8,
}

impl BusList {
    /// An empty list.
    pub fn new() -> Self {
        BusList {
            items: [BusTxn::Fetch; MAX_BUS_TXNS],
            len: 0,
        }
    }

    /// Append a transaction. Panics if the access implied more than
    /// [`MAX_BUS_TXNS`] transactions (impossible by construction).
    pub fn push(&mut self, txn: BusTxn) {
        self.items[self.len as usize] = txn;
        self.len += 1;
    }
}

impl Default for BusList {
    fn default() -> Self {
        BusList::new()
    }
}

impl std::ops::Deref for BusList {
    type Target = [BusTxn];
    fn deref(&self) -> &[BusTxn] {
        &self.items[..self.len as usize]
    }
}

impl PartialEq for BusList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BusList {}

impl PartialEq<Vec<BusTxn>> for BusList {
    fn eq(&self, other: &Vec<BusTxn>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<[BusTxn]> for BusList {
    fn eq(&self, other: &[BusTxn]) -> bool {
        **self == *other
    }
}

impl IntoIterator for BusList {
    type Item = BusTxn;
    type IntoIter = std::iter::Take<std::array::IntoIter<BusTxn, MAX_BUS_TXNS>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a BusList {
    type Item = &'a BusTxn;
    type IntoIter = std::slice::Iter<'a, BusTxn>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Outcome of a CE-side access to the shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Bus transactions that must be scheduled, in order. On a miss the
    /// `Fetch` is the transaction the requesting CE stalls on; write-backs
    /// and coherence traffic proceed asynchronously.
    pub bus: BusList,
}

/// Which side of the machine is accessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Ce,
    Ip,
}

/// Aggregate statistics for the cache system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// CE-side accesses.
    pub ce_accesses: u64,
    /// CE-side misses.
    pub ce_misses: u64,
    /// IP-side accesses.
    pub ip_accesses: u64,
    /// IP-side misses.
    pub ip_misses: u64,
    /// Cross-cache invalidations (either direction).
    pub cross_invalidations: u64,
}

/// The two-cache system with unique-copy-before-modify coherence.
#[derive(Debug)]
pub struct CacheSystem {
    geom: CacheGeometry,
    banks: Vec<SetAssocCache>,
    ipc: SetAssocCache,
    /// Precomputed index arithmetic: the validated geometry is all powers
    /// of two, so bank/set routing is mask-and-shift instead of the
    /// div/mod chains `CacheGeometry::{bank_of, set_of}` would recompute
    /// on every access (several times per simulated cycle).
    bank_mask: u64,
    bank_shift: u32,
    set_mask: u64,
    ipc_mask: u64,
    stats: SystemStats,
    /// Coherence-rule violations observed after accesses, drained by the
    /// invariant auditor once per cycle. Empty (and allocation-free) unless
    /// the coherence protocol is actually broken.
    #[cfg(feature = "audit")]
    audit_log: Vec<(LineId, String)>,
}

impl CacheSystem {
    /// Build the CE cache from `geom` and an IP cache of `ipc_bytes`.
    pub fn new(geom: CacheGeometry, ipc_bytes: u64) -> Self {
        geom.validate().expect("valid CE-cache geometry");
        let sets = geom.sets_per_bank();
        let banks = (0..geom.banks)
            .map(|_| SetAssocCache::new(sets, geom.assoc))
            .collect();
        let ipc_lines = (ipc_bytes / geom.line_bytes).max(1);
        let ipc_assoc = 2.min(ipc_lines as usize);
        let ipc_sets = (ipc_lines / ipc_assoc as u64).max(1);
        assert!(
            ipc_sets.is_power_of_two(),
            "IPC sets must be a power of two"
        );
        CacheSystem {
            geom,
            banks,
            ipc: SetAssocCache::new(ipc_sets as usize, ipc_assoc),
            bank_mask: geom.banks as u64 - 1,
            bank_shift: (geom.banks as u64).trailing_zeros(),
            set_mask: sets as u64 - 1,
            ipc_mask: ipc_sets - 1,
            stats: SystemStats::default(),
            #[cfg(feature = "audit")]
            audit_log: Vec::new(),
        }
    }

    /// Geometry of the CE cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Bank index serving `line` (what the crossbar routes on).
    #[inline]
    pub fn bank_of(&self, line: LineId) -> usize {
        (line.0 & self.bank_mask) as usize
    }

    #[inline]
    fn cpc_set(&self, line: LineId) -> usize {
        ((line.0 >> self.bank_shift) & self.set_mask) as usize
    }

    #[inline]
    fn ipc_set(&self, line: LineId) -> usize {
        (line.0 & self.ipc_mask) as usize
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Whether the CE cache currently holds `line` (no LRU side effects).
    pub fn cpc_contains(&self, line: LineId) -> bool {
        let bank = self.bank_of(line);
        self.banks[bank].contains(self.cpc_set(line), line)
    }

    /// Whether the IP cache currently holds `line`.
    pub fn ipc_contains(&self, line: LineId) -> bool {
        self.ipc.contains(self.ipc_set(line), line)
    }

    /// A CE reads or writes `line`. Applies all cache and coherence state
    /// transitions immediately and reports the implied bus transactions.
    #[inline]
    pub fn ce_access(&mut self, line: LineId, is_write: bool) -> AccessOutcome {
        self.access::<true>(line, is_write)
    }

    /// An IP reads or writes `line` through the IP cache.
    #[inline]
    pub fn ip_access(&mut self, line: LineId, is_write: bool) -> AccessOutcome {
        self.access::<false>(line, is_write)
    }

    /// Shared access logic, monomorphized per side: `CE` is a compile-time
    /// constant so the per-side dispatch below folds away in the build,
    /// keeping the CE hit path (several times per simulated cycle)
    /// branch-free of side selection.
    fn access<const CE: bool>(&mut self, line: LineId, is_write: bool) -> AccessOutcome {
        let side = if CE { Side::Ce } else { Side::Ip };
        match side {
            Side::Ce => self.stats.ce_accesses += 1,
            Side::Ip => self.stats.ip_accesses += 1,
        }
        let mut bus = BusList::new();

        // Split borrows: local cache is the one being accessed.
        let (local_set, other_set) = match side {
            Side::Ce => (self.cpc_set(line), self.ipc_set(line)),
            Side::Ip => (self.ipc_set(line), self.cpc_set(line)),
        };
        let bank = self.bank_of(line);

        let hit = {
            let local = match side {
                Side::Ce => &mut self.banks[bank],
                Side::Ip => &mut self.ipc,
            };
            local.lookup(local_set, line).is_some()
        };

        if hit {
            if is_write {
                // Unique-copy-before-modify: kick the other cache's copy out.
                let other_had = {
                    let other = match side {
                        Side::Ce => &mut self.ipc,
                        Side::Ip => &mut self.banks[bank],
                    };
                    other.invalidate(other_set, line)
                };
                if let Some(e) = other_had {
                    self.stats.cross_invalidations += 1;
                    bus.push(BusTxn::Coherence);
                    if e.dirty {
                        // The other cache held the only valid data: flush it.
                        bus.push(BusTxn::WriteBack);
                    }
                }
                let local = match side {
                    Side::Ce => &mut self.banks[bank],
                    Side::Ip => &mut self.ipc,
                };
                local.mark_dirty(local_set, line);
            }
            #[cfg(feature = "audit")]
            self.audit_line(line);
            return AccessOutcome { hit: true, bus };
        }

        // Miss path.
        match side {
            Side::Ce => self.stats.ce_misses += 1,
            Side::Ip => self.stats.ip_misses += 1,
        }

        // If the other cache holds the line: on a read we may share (it
        // supplies data over the memory bus as a coherence transfer); on a
        // write we must invalidate it first.
        let other_entry = {
            let other = match side {
                Side::Ce => &mut self.ipc,
                Side::Ip => &mut self.banks[bank],
            };
            if is_write {
                other.invalidate(other_set, line)
            } else {
                // Reads demote the other copy to shared.
                if other.contains(other_set, line) {
                    // Flush if dirty so memory supplies current data.
                    let e = other.invalidate(other_set, line).expect("contains checked");
                    // Re-install clean + shared (read keeps both copies).
                    other.fill(other_set, line, false, false);
                    Some(e)
                } else {
                    None
                }
            }
        };
        if let Some(e) = other_entry {
            self.stats.cross_invalidations += u64::from(is_write);
            bus.push(BusTxn::Coherence);
            if e.dirty {
                bus.push(BusTxn::WriteBack);
            }
        }

        // Fetch into the local cache.
        bus.push(match side {
            Side::Ce => BusTxn::Fetch,
            Side::Ip => BusTxn::IpFetch,
        });
        let other_has = match side {
            Side::Ce => self.ipc.contains(other_set, line),
            Side::Ip => self.banks[bank].contains(other_set, line),
        };
        let unique = is_write || !other_has;
        let victim = {
            let local = match side {
                Side::Ce => &mut self.banks[bank],
                Side::Ip => &mut self.ipc,
            };
            local.fill(local_set, line, is_write, unique)
        };
        if let Some(v) = victim {
            if v.dirty {
                bus.push(BusTxn::WriteBack);
            }
        }
        #[cfg(feature = "audit")]
        self.audit_line(line);
        AccessOutcome { hit: false, bus }
    }

    /// Check the unique-copy-before-modify invariant for `line` after an
    /// access: if both caches hold the line neither copy may be dirty or
    /// unique, and within one cache a dirty copy must be unique.
    #[cfg(feature = "audit")]
    fn audit_line(&mut self, line: LineId) {
        let bank = self.bank_of(line);
        let cpc = self.banks[bank].entry(self.cpc_set(line), line);
        let ipc = self.ipc.entry(self.ipc_set(line), line);
        if let (Some(c), Some(i)) = (cpc, ipc) {
            if c.dirty || i.dirty || c.unique || i.unique {
                self.audit_log.push((
                    line,
                    format!(
                        "both caches hold the line but it is not clean-shared \
                         (cpc dirty={} unique={}, ipc dirty={} unique={})",
                        c.dirty, c.unique, i.dirty, i.unique
                    ),
                ));
            }
        }
        for (name, entry) in [("cpc", cpc), ("ipc", ipc)] {
            if let Some(e) = entry {
                if e.dirty && !e.unique {
                    self.audit_log
                        .push((line, format!("{name} holds the line dirty but not unique")));
                }
            }
        }
    }

    /// Whether any coherence violations are pending collection.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_log_is_empty(&self) -> bool {
        self.audit_log.is_empty()
    }

    /// Drain the pending coherence violations.
    #[cfg(feature = "audit")]
    pub(crate) fn take_audit_log(&mut self) -> Vec<(LineId, String)> {
        std::mem::take(&mut self.audit_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn sys() -> CacheSystem {
        CacheSystem::new(MachineConfig::fx8().cache, 32 * 1024)
    }

    #[test]
    fn ce_read_miss_fetches_then_hits() {
        let mut s = sys();
        let out = s.ce_access(LineId(100), false);
        assert!(!out.hit);
        assert_eq!(out.bus, vec![BusTxn::Fetch]);
        let out2 = s.ce_access(LineId(100), false);
        assert!(out2.hit);
        assert!(out2.bus.is_empty());
    }

    #[test]
    fn cross_ce_reuse_is_free() {
        // A line fetched for one CE is a hit for every other CE: the cache
        // is shared. This is the cross-processor locality effect of § 5.1.
        let mut s = sys();
        s.ce_access(LineId(7), false);
        let again = s.ce_access(LineId(7), false);
        assert!(again.hit);
    }

    #[test]
    fn write_miss_installs_dirty_unique() {
        let mut s = sys();
        let out = s.ce_access(LineId(40), true);
        assert!(!out.hit);
        assert_eq!(out.bus, vec![BusTxn::Fetch]);
        // Eviction of that line later must write back.
        assert!(s.cpc_contains(LineId(40)));
    }

    #[test]
    fn ce_write_invalidates_ip_copy() {
        let mut s = sys();
        s.ip_access(LineId(55), false); // IPC holds it clean
        assert!(s.ipc_contains(LineId(55)));
        let out = s.ce_access(LineId(55), true);
        assert!(!out.hit);
        assert!(out.bus.contains(&BusTxn::Coherence));
        assert!(out.bus.contains(&BusTxn::Fetch));
        assert!(!s.ipc_contains(LineId(55)), "unique-before-modify");
        assert_eq!(s.stats().cross_invalidations, 1);
    }

    #[test]
    fn ip_write_invalidates_dirty_ce_copy_with_flush() {
        let mut s = sys();
        s.ce_access(LineId(60), true); // CPC dirty unique
        let out = s.ip_access(LineId(60), true);
        assert!(!out.hit);
        assert!(out.bus.contains(&BusTxn::Coherence));
        assert!(
            out.bus.contains(&BusTxn::WriteBack),
            "dirty copy must flush"
        );
        assert!(!s.cpc_contains(LineId(60)));
    }

    #[test]
    fn read_sharing_keeps_both_copies() {
        let mut s = sys();
        s.ip_access(LineId(70), false);
        let out = s.ce_access(LineId(70), false);
        assert!(!out.hit);
        assert!(s.cpc_contains(LineId(70)));
        assert!(s.ipc_contains(LineId(70)), "read sharing keeps IPC copy");
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        // Fill one set of one bank beyond associativity with dirty lines.
        let geom = MachineConfig::fx8().cache;
        let mut s = sys();
        let sets = geom.sets_per_bank() as u64;
        let stride = geom.banks as u64 * sets; // same bank, same set
        let mut wrote_back = false;
        for i in 0..=(geom.assoc as u64) {
            let out = s.ce_access(LineId(i * stride), true);
            if out.bus.contains(&BusTxn::WriteBack) {
                wrote_back = true;
            }
        }
        assert!(
            wrote_back,
            "overflowing a set with dirty lines must write back"
        );
    }

    #[test]
    fn adjacent_lines_route_to_different_banks() {
        let s = sys();
        assert_ne!(s.bank_of(LineId(0)), s.bank_of(LineId(1)));
        assert_eq!(s.bank_of(LineId(0)), s.bank_of(LineId(4)));
    }

    #[test]
    fn stats_count_both_sides() {
        let mut s = sys();
        s.ce_access(LineId(1), false);
        s.ce_access(LineId(1), false);
        s.ip_access(LineId(2), false);
        let st = s.stats();
        assert_eq!(st.ce_accesses, 2);
        assert_eq!(st.ce_misses, 1);
        assert_eq!(st.ip_accesses, 1);
        assert_eq!(st.ip_misses, 1);
    }
}
