//! The persistent, versioned slot map: which node owns each of the
//! 16384 hash slots, plus a monotonically increasing epoch that bumps
//! on every topology change (ASSIGN, migration flip, TAKEOVER).
//!
//! Persistence is a small text file (`cluster.map`) published whole and
//! durably ([`DurableFile`]). Only *ownership* is durable — migration
//! progress (importing / migrating marks) is deliberately volatile, so
//! a node that dies mid-migration comes back as the unambiguous owner
//! of everything it owned before the flip, and the migration is simply
//! re-run. That asymmetry is the crash-safety argument: there is no
//! intermediate durable state in which both (or neither) side owns a
//! slot.

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::Arc;

use super::slots::NUM_SLOTS;
use crate::snapshot::DurableFile;

const MAGIC: &str = "dash-cluster-map v1";

/// Slot → owner assignment with a version epoch.
#[derive(Clone)]
pub(crate) struct SlotMap {
    epoch: u64,
    owners: Vec<Option<Arc<str>>>,
}

impl SlotMap {
    pub fn new() -> Self {
        SlotMap { epoch: 0, owners: vec![None; NUM_SLOTS as usize] }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raise the epoch to at least `floor`, always by at least one.
    pub fn bump_epoch(&mut self, floor: u64) -> u64 {
        self.epoch = (self.epoch + 1).max(floor);
        self.epoch
    }

    pub fn owner(&self, slot: u16) -> Option<&Arc<str>> {
        self.owners[slot as usize].as_ref()
    }

    /// Point `start..=end` at `addr`. The caller bumps the epoch.
    pub fn assign(&mut self, start: u16, end: u16, addr: &str) {
        let addr: Arc<str> = Arc::from(addr);
        for slot in start..=end {
            self.owners[slot as usize] = Some(addr.clone());
        }
    }

    pub fn slots_assigned(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }

    pub fn slots_owned_by(&self, addr: &str) -> usize {
        self.owners.iter().filter(|o| o.as_deref() == Some(addr)).count()
    }

    /// Distinct owner addresses, in first-slot order.
    pub fn nodes(&self) -> Vec<String> {
        let mut nodes: Vec<String> = Vec::new();
        for owner in self.owners.iter().flatten() {
            if !nodes.iter().any(|n| n.as_str() == &**owner) {
                nodes.push(owner.to_string());
            }
        }
        nodes
    }

    /// Contiguous `(start, end, owner)` runs over the assigned slots —
    /// the shape both `CLUSTER SLOTS` and the file format use.
    pub fn ranges(&self) -> Vec<(u16, u16, Arc<str>)> {
        let mut out: Vec<(u16, u16, Arc<str>)> = Vec::new();
        for (slot, owner) in self.owners.iter().enumerate() {
            let Some(owner) = owner else { continue };
            match out.last_mut() {
                Some((_, end, prev)) if *end as usize + 1 == slot && *prev == *owner => *end = slot as u16,
                _ => out.push((slot as u16, slot as u16, owner.clone())),
            }
        }
        out
    }

    pub fn encode(&self) -> String {
        let mut text = format!("{MAGIC}\nepoch {}\n", self.epoch);
        for (start, end, owner) in self.ranges() {
            text.push_str(&format!("slots {start}-{end} {owner}\n"));
        }
        text
    }

    pub fn parse(text: &str) -> Result<SlotMap, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err("bad slot-map header".into());
        }
        let mut map = SlotMap::new();
        let epoch_line = lines.next().ok_or("missing epoch line")?;
        map.epoch = epoch_line
            .strip_prefix("epoch ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad epoch line {epoch_line:?}"))?;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let bad = || format!("bad slots line {line:?}");
            let rest = line.strip_prefix("slots ").ok_or_else(bad)?;
            let (range, addr) = rest.split_once(' ').ok_or_else(bad)?;
            let (start, end) = range.split_once('-').ok_or_else(bad)?;
            let start: u16 = start.parse().map_err(|_| bad())?;
            let end: u16 = end.parse().map_err(|_| bad())?;
            if start > end || end >= NUM_SLOTS || addr.is_empty() {
                return Err(bad());
            }
            map.assign(start, end, addr);
        }
        Ok(map)
    }

    /// Crash-safe persist: `Ok` means the map on disk is this one, for
    /// good — the migration flip hands a range over on that.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut file = DurableFile::create(path)?;
        file.out.write_all(self.encode().as_bytes())?;
        file.commit()
    }

    pub fn load(path: &Path) -> io::Result<SlotMap> {
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        SlotMap::parse(&text).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-cluster-map-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let mut map = SlotMap::new();
        map.assign(0, 8191, "127.0.0.1:7700");
        map.assign(8192, 16383, "127.0.0.1:7701");
        map.assign(100, 200, "127.0.0.1:7702"); // punch a hole in node 0's run
        map.bump_epoch(0);
        map.bump_epoch(41); // floor wins over the +1: max(2, 41)
        assert_eq!(map.epoch(), 41);

        let text = map.encode();
        let back = SlotMap::parse(&text).expect("parse");
        assert_eq!(back.epoch(), 41);
        assert_eq!(back.owner(0).map(|a| &**a), Some("127.0.0.1:7700"));
        assert_eq!(back.owner(150).map(|a| &**a), Some("127.0.0.1:7702"));
        assert_eq!(back.owner(16383).map(|a| &**a), Some("127.0.0.1:7701"));
        assert_eq!(back.slots_assigned(), 16384);
        assert_eq!(back.slots_owned_by("127.0.0.1:7702"), 101);
        assert_eq!(back.nodes().len(), 3);
        // Ranges re-compress to the same text.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn ranges_compress_contiguous_same_owner_runs() {
        let mut map = SlotMap::new();
        map.assign(5, 10, "a");
        map.assign(11, 20, "a");
        map.assign(30, 30, "b");
        let ranges = map.ranges();
        assert_eq!(ranges.len(), 2);
        assert_eq!((ranges[0].0, ranges[0].1, &*ranges[0].2), (5, 20, "a"));
        assert_eq!((ranges[1].0, ranges[1].1, &*ranges[1].2), (30, 30, "b"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SlotMap::parse("not a map").is_err());
        assert!(SlotMap::parse("dash-cluster-map v1\nepoch x\n").is_err());
        assert!(SlotMap::parse("dash-cluster-map v1\nepoch 1\nslots 5-4 a\n").is_err());
        assert!(SlotMap::parse("dash-cluster-map v1\nepoch 1\nslots 0-16384 a\n").is_err());
        assert!(SlotMap::parse("dash-cluster-map v1\nepoch 1\nbogus\n").is_err());
    }

    #[test]
    fn save_load_roundtrip_and_unassigned_map() {
        let dir = TempDir::new("saveload");
        let path = dir.0.join("cluster.map");
        let mut map = SlotMap::new();
        map.assign(0, 99, "n1");
        map.bump_epoch(0);
        map.save(&path).unwrap();
        let back = SlotMap::load(&path).unwrap();
        assert_eq!(back.epoch(), 1);
        assert_eq!(back.slots_assigned(), 100);
        assert!(back.owner(100).is_none());

        // A fully-unassigned map persists and loads too.
        SlotMap::new().save(&path).unwrap();
        assert_eq!(SlotMap::load(&path).unwrap().slots_assigned(), 0);
    }
}
