//! The NameNode's tables keyed by block id: the block table, every
//! block's [`BlockInfo`], and the under-replicated queue, each entry found
//! by its id with one load instead of a tree descent.
//!
//! Block ids are allocated from 1 upward and never reused, so the live ids
//! are a dense run with holes where files were deleted. The table cuts the
//! id space into fixed pages of [`PAGE_SLOTS`] slots: the high bits of an
//! id name its page, the low bits its slot. A page exists only while it
//! holds a block — it is allocated for its first and freed with its last —
//! and the directory keeps the pages in id order, so iteration walks the
//! ids in the same order a sorted map would.
//!
//! There is no flat array over all ids: an id comes out of the image or
//! the journal, and a single flipped bit there would size that array. A
//! stored record adds at most one page here, whatever its id.
//!
//! A page holds 1 024 slots whether one is occupied or all are, so a walk
//! over a table is O(pages + entries), and a table has at most one page
//! per entry: never O(blocks) for a table that holds a few of them.

use std::fmt;
use std::num::NonZeroU8;

use crate::block::BlockId;
use crate::namenode::BlockInfo;

/// Low id bits that pick a slot within a page.
const PAGE_BITS: u32 = 10;
/// Slots per page.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Mask of the slot bits.
const SLOT_MASK: u64 = (1 << PAGE_BITS) - 1;

/// The page an id lives on and its slot there.
fn split(id: BlockId) -> (u64, usize) {
    // The mask keeps the slot below `PAGE_SLOTS`, which fits any `usize`.
    (id.0 >> PAGE_BITS, (id.0 & SLOT_MASK) as usize)
}

/// The slots of ids `key << PAGE_BITS ..` up to the next page.
#[derive(Clone)]
struct Page<T> {
    key: u64,
    /// Occupied slots; the page goes when this reaches zero.
    live: usize,
    slots: Box<[Option<T>]>,
}

impl<T> Page<T> {
    fn new(key: u64) -> Self {
        Page { key, live: 0, slots: std::iter::repeat_with(|| None).take(PAGE_SLOTS).collect() }
    }

    /// `(id, entry)` for every occupied slot, in id order.
    fn entries(&self) -> impl Iterator<Item = (BlockId, &T)> {
        let base = self.key << PAGE_BITS;
        // A slot index is below `PAGE_SLOTS`, so it only fills the low bits.
        let id = move |slot: usize| BlockId(base | slot as u64);
        self.slots.iter().enumerate().filter_map(move |(slot, s)| Some((id(slot), s.as_ref()?)))
    }
}

/// Block id → `T` ([`BlockInfo`] for the block table), iterated in id
/// order.
#[derive(Clone)]
pub(crate) struct BlockMap<T = BlockInfo> {
    /// Pages sorted by key, one per key that holds a block.
    pages: Vec<Page<T>>,
    len: usize,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap { pages: Vec::new(), len: 0 }
    }
}

impl<T> BlockMap<T> {
    /// Where the page of `key` is in the directory, or where it would go.
    fn position(&self, key: u64) -> Result<usize, usize> {
        // The directory is usually a run of consecutive keys, so the key's
        // distance from the first key is its index; holes fall back to a
        // binary search.
        let guess = self.pages.first().and_then(|p| usize::try_from(key.checked_sub(p.key)?).ok());
        match guess {
            Some(at) if self.pages.get(at).is_some_and(|p| p.key == key) => Ok(at),
            _ => self.pages.binary_search_by_key(&key, |p| p.key),
        }
    }

    /// Number of blocks held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains_key(&self, id: BlockId) -> bool {
        self.get(id).is_some()
    }

    pub(crate) fn get(&self, id: BlockId) -> Option<&T> {
        let (key, slot) = split(id);
        self.pages.get(self.position(key).ok()?)?.slots.get(slot)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: BlockId) -> Option<&mut T> {
        let (key, slot) = split(id);
        let at = self.position(key).ok()?;
        self.pages.get_mut(at)?.slots.get_mut(slot)?.as_mut()
    }

    /// Store `info` under `id`, allocating its page if it has none yet.
    /// Returns the entry it replaced.
    pub(crate) fn insert(&mut self, id: BlockId, info: T) -> Option<T> {
        let (key, slot) = split(id);
        let at = self.position(key).unwrap_or_else(|at| {
            self.pages.insert(at, Page::new(key));
            at
        });
        let page = self.pages.get_mut(at)?;
        let old = page.slots.get_mut(slot)?.replace(info);
        if old.is_none() {
            page.live += 1;
            self.len += 1;
        }
        old
    }

    /// Take `id`'s entry out, freeing its page if it was the last.
    pub(crate) fn remove(&mut self, id: BlockId) -> Option<T> {
        let (key, slot) = split(id);
        let at = self.position(key).ok()?;
        let page = self.pages.get_mut(at)?;
        let old = page.slots.get_mut(slot)?.take()?;
        page.live -= 1;
        self.len -= 1;
        if page.live == 0 {
            self.pages.remove(at);
        }
        Some(old)
    }

    /// Drop every entry and every page.
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }

    /// `(id, entry)` in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockId, &T)> {
        self.pages.iter().flat_map(Page::entries)
    }
}

impl<T: fmt::Debug> fmt::Debug for BlockMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Blocks shorter than their target by more than this many replicas all
/// share the most-urgent priority (HDFS caps its queue levels the same way).
pub(crate) const MAX_REPLICATION_PRIORITY: u8 = 8;

/// The under-replicated blocks, each with its priority: how many replicas
/// it is missing, capped. Paged by block id like the block table, so a
/// block walking 0 → 1 → 2 → 3 replicas during a report storm costs one
/// slot write per step, and a page exists only while one of its blocks is
/// short; the replication monitor buckets by priority once per pass. A
/// member misses at least one replica, so a priority is never 0 and a
/// slot is one byte.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnderReplicatedQueue {
    priority: BlockMap<NonZeroU8>,
}

impl UnderReplicatedQueue {
    /// Insert or re-prioritize `id` as missing `need` replicas (at least
    /// one).
    pub(crate) fn set(&mut self, id: BlockId, need: u32) {
        let pri =
            u8::try_from(need).unwrap_or(MAX_REPLICATION_PRIORITY).min(MAX_REPLICATION_PRIORITY);
        self.priority.insert(id, NonZeroU8::new(pri).unwrap_or(NonZeroU8::MIN));
    }

    pub(crate) fn remove(&mut self, id: BlockId) {
        self.priority.remove(id);
    }

    pub(crate) fn len(&self) -> usize {
        self.priority.len()
    }

    /// Member ids in id order (deterministic reporting).
    pub(crate) fn ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.priority.iter().map(|(id, _)| id)
    }

    /// Work order: most-missing first, id order within a priority.
    pub(crate) fn priority_order(&self) -> Vec<BlockId> {
        let mut buckets = vec![Vec::new(); usize::from(MAX_REPLICATION_PRIORITY) + 1];
        for (id, &pri) in self.priority.iter() {
            if let Some(bucket) = buckets.get_mut(usize::from(pri.get())) {
                bucket.push(id);
            }
        }
        buckets.into_iter().rev().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use hl_common::prelude::NodeId;

    use super::*;

    /// A block whose fields all carry `x`, so a stale entry cannot pass.
    fn info(x: u64) -> BlockInfo {
        BlockInfo::unreported(x, u32::try_from(x % 7).unwrap_or(0), x)
    }

    /// The id a drawn `(region, page, slot)` names: three regions — the
    /// first pages, pages far from them, and the last pages below
    /// `u64::MAX` — three neighbouring pages in each, and slots at both
    /// ends of a page. Few enough ids that drawn steps empty pages and
    /// fill them again.
    fn drawn_id(region: u8, page: u8, slot: u8) -> BlockId {
        let first = [0, 1 << 30, (u64::MAX >> PAGE_BITS) - 2][usize::from(region % 3)];
        let slot = [0, 1, 2, 1021, 1022, 1023][usize::from(slot % 6)];
        BlockId((first + u64::from(page % 3)) << PAGE_BITS | slot)
    }

    /// The table says what the model says, in the model's order, and
    /// keeps a page exactly for each key that holds a block.
    fn assert_matches(map: &BlockMap, model: &BTreeMap<BlockId, BlockInfo>) {
        assert_eq!(map.len(), model.len());
        assert!(map.iter().eq(model.iter().map(|(&id, b)| (id, b))));
        let mut keys: Vec<u64> = model.keys().map(|&id| split(id).0).collect();
        keys.dedup();
        assert_eq!(map.pages.iter().map(|p| p.key).collect::<Vec<_>>(), keys);
        assert!(map.pages.iter().all(|p| p.live == p.entries().count() && p.live > 0));
    }

    proptest::proptest! {
        /// Drawn inserts, removes, in-place changes and lookups against a
        /// `BTreeMap`: after every step both hold the same entries in the
        /// same order, and each lookup answers the same.
        #[test]
        fn block_table_matches_a_btreemap(
            steps in proptest::collection::vec((0u8..5, 0u8..3, 0u8..3, 0u8..6, proptest::any::<u64>()), 1..200),
        ) {
            let (mut map, mut model) = (BlockMap::default(), BTreeMap::new());
            for (kind, region, page, slot, x) in steps {
                let id = drawn_id(region, page, slot);
                match kind {
                    0 | 1 => proptest::prop_assert_eq!(map.insert(id, info(x)), model.insert(id, info(x))),
                    2 => proptest::prop_assert_eq!(map.remove(id), model.remove(&id)),
                    3 => {
                        let (a, b) = (map.get_mut(id), model.get_mut(&id));
                        proptest::prop_assert_eq!(a.is_some(), b.is_some());
                        for entry in a.into_iter().chain(b) {
                            entry.gen_stamp = x;
                            entry.locations.insert(NodeId(u32::from(slot)));
                        }
                    }
                    _ => {
                        proptest::prop_assert_eq!(map.get(id), model.get(&id));
                        proptest::prop_assert_eq!(map.contains_key(id), model.contains_key(&id));
                    }
                }
                assert_matches(&map, &model);
            }
        }
    }

    proptest::proptest! {
        /// Drawn sets (first entries, re-prioritizations, priorities past
        /// the cap) and removals against a `BTreeMap` of capped
        /// priorities, over the same ids as the block table's property:
        /// after every step the queue has the model's length, members in
        /// id order and work order, and a page for each key that still
        /// holds a member — an emptied page is freed.
        #[test]
        fn under_replicated_queue_matches_a_btreemap(
            steps in proptest::collection::vec((proptest::any::<bool>(), 0u8..3, 0u8..3, 0u8..6, 1u32..12), 1..200),
        ) {
            let (mut queue, mut model) = (UnderReplicatedQueue::default(), BTreeMap::new());
            for (set, region, page, slot, need) in steps {
                let id = drawn_id(region, page, slot);
                if set {
                    queue.set(id, need);
                    model.insert(id, need.min(u32::from(MAX_REPLICATION_PRIORITY)));
                } else {
                    queue.remove(id);
                    model.remove(&id);
                }
                proptest::prop_assert_eq!(queue.len(), model.len());
                proptest::prop_assert!(queue.ids().eq(model.keys().copied()));
                let mut order: Vec<(std::cmp::Reverse<u32>, BlockId)> =
                    model.iter().map(|(&id, &pri)| (std::cmp::Reverse(pri), id)).collect();
                order.sort();
                let order: Vec<BlockId> = order.into_iter().map(|(_, id)| id).collect();
                proptest::prop_assert_eq!(queue.priority_order(), order);
                let mut keys: Vec<u64> = model.keys().map(|&id| split(id).0).collect();
                keys.dedup();
                let pages: Vec<u64> = queue.priority.pages.iter().map(|p| p.key).collect();
                proptest::prop_assert_eq!(pages, keys);
            }
        }
    }

    #[test]
    fn a_page_comes_with_its_first_block_and_goes_with_its_last() {
        let mut map = BlockMap::default();
        let ids = [BlockId(1), BlockId(1023), BlockId(1024), BlockId(u64::MAX)];
        for (x, id) in ids.into_iter().enumerate() {
            assert_eq!(map.insert(id, info(x as u64)), None);
        }
        assert_eq!(map.pages.iter().map(|p| p.key).collect::<Vec<_>>(), [0, 1, u64::MAX >> 10]);
        assert_eq!(map.iter().map(|(id, _)| id).collect::<Vec<_>>(), ids);

        // Empty page 0, then fill it again.
        assert_eq!(map.remove(BlockId(1)), Some(info(0)));
        assert_eq!(map.pages.len(), 3, "slot 1023 still holds page 0");
        assert_eq!(map.remove(BlockId(1023)), Some(info(1)));
        assert_eq!(map.remove(BlockId(1023)), None);
        assert_eq!(map.pages.iter().map(|p| p.key).collect::<Vec<_>>(), [1, u64::MAX >> 10]);
        assert_eq!(map.insert(BlockId(5), info(5)), None);
        assert_eq!(map.insert(BlockId(5), info(6)), Some(info(5)));
        assert_eq!(map.pages.iter().map(|p| p.key).collect::<Vec<_>>(), [0, 1, u64::MAX >> 10]);
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(BlockId(6)), None);
        assert_eq!(map.get(BlockId(u64::MAX - 1)), None);

        map.clear();
        assert_eq!((map.len(), map.pages.len(), map.iter().count()), (0, 0, 0));
    }
}
