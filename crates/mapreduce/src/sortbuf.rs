//! The map-side collect → sort → spill buffer.
//!
//! Map output pairs are serialized immediately (key via its
//! order-preserving encoding, value via `Writable`), partitioned by key
//! hash, and buffered; when the buffer exceeds `io.sort` capacity the
//! records are sorted **by raw bytes** and spilled, with the combiner
//! folding each equal-key group — exactly Hadoop's spill pipeline, and the
//! mechanism behind the lecture's "combiner trades map time for shuffle
//! bytes" observation.
//!
//! The collect buffer follows Hadoop's `MapOutputBuffer` kvbuffer/kvmeta
//! split: one flat byte arena holds every serialized record back to back
//! (key, then its value), and two parallel arrays describe it — a 12-byte
//! `KvSlot` per record (where it lies) and a 16-byte `SortKey` per record
//! (its partition, its first eight key bytes as a big-endian word, its
//! arrival number). No per-record `Vec` is allocated on the collect path.
//! The kvmeta exists only here, where `io.sort` bounds it.
//!
//! A spill orders the `SortKey`s with a **stable LSD radix sort** on
//! `(partition, prefix)`: one read histograms all eight prefix bytes, each
//! byte whose histogram has more than one non-empty bucket is one scatter
//! pass (least significant first), and the partition is the last, most
//! significant pass, which also yields the partition boundaries. Only the
//! sort keys move; the slots are gathered once at the end. What the prefix
//! cannot decide is left to a **tie pass** over runs of equal
//! `(partition, prefix)`: a run whose keys all have one length and equal
//! bytes past the prefix holds one key, already in arrival order, and is
//! skipped; any other run (keys that differ past the prefix, `"a"` beside
//! `"a\0"`, the empty key) is stable-sorted by full key slice. The pass
//! marks every record whose key repeats the one before it. Raw-byte order
//! is key order because keys encode order-preserving, and the stability of
//! every pass is what keeps equal keys in collect order.
//!
//! Degradation: keys that all share their first eight bytes (URLs, `Pair`
//! keys with a constant head) skip every digit pass and are ordered by the
//! tie pass alone — one stable comparison sort over key slices per
//! partition, which is what the whole spill sort was before the radix
//! passes existed.
//!
//! A spilled run is laid out as Hadoop's IFile lays out a spill file or a
//! map-output segment: per record, in sorted order, a key-length code and
//! the value's length as LEB128 varints, then the key bytes, then the
//! value bytes — and nothing else. The code is the key's length plus one,
//! or 0 for a key equal to the previous record's, which is then not
//! stored again. Every run is framed that way: a record repeats its key
//! exactly when its code is 0. Builders learn a repeat from structure they
//! already have (the tie pass's equal-key stretches, a combiner group's
//! later outputs, the merge's streak), never by comparing every key with
//! the one before. A run carries no per-record index, so it is read
//! forwards only, which is how the map-side and reduce-side merges read
//! it. A wordcount record (9-byte key, 8-byte count) costs 19 bytes in a
//! run when its key is new and 10 when it repeats.
//!
//! The framing is the host's business alone: [`SortedRun::bytes`], which
//! every spill, merge and shuffle charge reads, and
//! [`SortedRun::record_bytes`], which map-output compression packs, count
//! every record's key and value in full.

use std::ops::Range;
use std::sync::Arc;

use hl_common::counters::{Counters, TaskCounter};
use hl_common::hash::default_partition;
use hl_common::keys::SortableKey;
use hl_common::writable::Writable;

use crate::api::{Combiner, PartitionFn};

/// A collect-buffer offset, length, partition or record number as
/// [`KvSlot`] and [`SortKey`] store it. Panics instead of wrapping: the
/// buffer force-spills once its arena reaches [`MAX_ARENA`], so only a
/// single record of gigabytes gets here. Runs hold no such numbers.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("sort buffer offsets, lengths and record numbers fit in u32")
}

/// The way back; lossless on every supported target.
fn to_usize(n: u32) -> usize {
    usize::try_from(n).expect("u32 fits in usize")
}

/// Append `n` as an unsigned LEB128 varint: seven bits per byte, least
/// significant group first, the high bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n.to_le_bytes()[0] | 0x80);
        n >>= 7;
    }
    out.push(n.to_le_bytes()[0]);
}

/// Bytes [`push_varint`] writes for `n`.
fn varint_len(n: usize) -> usize {
    let bits = usize::BITS - (n | 1).leading_zeros();
    to_usize(bits.div_ceil(7))
}

/// The key-length code that frames a key of `key_len` bytes: 0 when the
/// key repeats the previous record's and is not stored.
fn key_code(key_len: usize, repeat: bool) -> usize {
    if repeat {
        0
    } else {
        key_len + 1
    }
}

/// Read the varint at `bytes[*at..]` and move `at` past it. A length
/// under 128 — every wordcount key and value — is its one byte.
#[inline]
fn read_varint(bytes: &[u8], at: &mut usize) -> usize {
    let first = bytes[*at];
    *at += 1;
    if first < 0x80 {
        return usize::from(first);
    }
    let mut n = usize::from(first & 0x7F);
    let mut shift = 7;
    loop {
        let b = bytes[*at];
        *at += 1;
        n |= usize::from(b & 0x7F) << shift;
        if b < 0x80 {
            return n;
        }
        shift += 7;
    }
}

/// One record's location inside the collect arena: the key starts at `off`
/// and the value follows it directly. Offsets are `u32` to keep the slot at
/// 12 bytes per record; the buffer force-spills before the arena could
/// outgrow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KvSlot {
    off: u32,
    key_len: u32,
    val_len: u32,
}

impl KvSlot {
    /// Slot of a record whose key starts at `key_off`, whose value starts
    /// at `val_off`, and which ends at `end`.
    fn new(key_off: usize, val_off: usize, end: usize) -> Self {
        let (off, val_off, end) = (to_u32(key_off), to_u32(val_off), to_u32(end));
        KvSlot { off, key_len: val_off - off, val_len: end - val_off }
    }

    fn key_len(&self) -> usize {
        to_usize(self.key_len)
    }

    fn val_len(&self) -> usize {
        to_usize(self.val_len)
    }

    /// Bytes the record takes once framed in a run, its key stored unless
    /// `repeat`.
    fn framed_len(&self, repeat: bool) -> usize {
        let (k, v) = (self.key_len(), self.val_len());
        let key = if repeat { 0 } else { k };
        varint_len(key_code(k, repeat)) + varint_len(v) + key + v
    }

    fn key_range(&self) -> Range<usize> {
        let off = to_usize(self.off);
        off..off + self.key_len()
    }

    /// The key bytes past the sort prefix; empty for a key of at most
    /// [`PREFIX_LEN`] bytes.
    fn suffix_range(&self) -> Range<usize> {
        let off = to_usize(self.off);
        off + self.key_len().min(PREFIX_LEN)..off + self.key_len()
    }

    /// Key and value bytes together.
    fn record_range(&self) -> Range<usize> {
        let off = to_usize(self.off);
        off..off + self.key_len() + self.val_len()
    }
}

/// One record of a run, borrowed from its arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<'a> {
    pub key: &'a [u8],
    pub value: &'a [u8],
    /// The key equals the previous record's in the same stream: the run
    /// the record was read from, or a merge's output.
    pub repeat: bool,
}

/// A forward cursor over a run arena, decoding one frame per record.
#[derive(Debug, Clone)]
pub(crate) struct Records<'a> {
    rest: &'a [u8],
    /// The last key stored, which a repeat's record borrows.
    key: &'a [u8],
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    /// Always inlined: left as a call, it cost the reduce-side merge a
    /// third of its records per second.
    #[inline(always)]
    fn next(&mut self) -> Option<Record<'a>> {
        // Every frame holds at least its two lengths.
        let &[k, v, ..] = self.rest else { return None };
        let (at, code, val_len) = if (k | v) < 0x80 {
            (2, usize::from(k), usize::from(v))
        } else {
            let mut at = 0;
            let code = read_varint(self.rest, &mut at);
            let val_len = read_varint(self.rest, &mut at);
            (at, code, val_len)
        };
        let key_len = code.saturating_sub(1);
        let (frame, rest) = self.rest.split_at(at + key_len + val_len);
        self.rest = rest;
        let (key, value) = frame[at..].split_at(key_len);
        let repeat = code == 0;
        if !repeat {
            self.key = key;
        }
        Some(Record { key: self.key, value, repeat })
    }
}

/// A sorted run of serialized `(key, value)` records for one partition,
/// IFile-framed back to back in sorted order in a byte arena (see the
/// module docs).
///
/// Records are exposed as borrowed slices — reading a run for a merge or
/// the shuffle never copies key/value bytes — and in order only: there is
/// no index to jump to the n-th record. `Clone` is O(1) (one `Arc` bump),
/// which is what lets the engine hand a map task's partition to a reduce
/// attempt without duplicating the payload.
#[derive(Debug, Clone, Default)]
pub struct SortedRun {
    arena: Arc<Vec<u8>>,
    /// Number of records.
    count: usize,
    /// Serialized size: the sum of key + value lengths, framing excluded.
    data_bytes: u64,
}

impl SortedRun {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Serialized size in bytes — the single size-accounting helper every
    /// spill/merge/shuffle charge goes through. The framing is not part of
    /// it: a charge prices the records, as it did before runs were framed.
    pub fn bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The arena's length: the records with their framing.
    pub(crate) fn framed_len(&self) -> usize {
        self.arena.len()
    }

    /// A cursor at the run's first record.
    pub(crate) fn records(&self) -> Records<'_> {
        Records { rest: &self.arena, key: &[] }
    }

    /// Every record's key and value bytes back to back in sorted order —
    /// what [`SortedRun::iter`] yields, concatenated, without the framing.
    /// Written over `flat`, which a caller keeps across runs so that only
    /// the largest allocates.
    pub fn record_bytes<'b>(&self, flat: &'b mut Vec<u8>) -> &'b [u8] {
        flat.clear();
        flat.reserve(usize::try_from(self.data_bytes).expect("run bytes fit in memory"));
        for r in self.records() {
            flat.extend_from_slice(r.key);
            flat.extend_from_slice(r.value);
        }
        flat
    }

    /// Iterate `(key, value)` slices in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.records().map(|r| (r.key, r.value))
    }
}

/// Accumulates serialized records into a fresh arena, in push order.
/// Used for spills, combiner output and merge output, where records are
/// produced already sorted, and where the producer knows which records
/// repeat the key before them: every push says so. The crate keeps it to
/// itself because the flag is trusted, not checked: a record marked as
/// a repeat whose key differs would read back the previous key.
#[derive(Debug, Default)]
pub(crate) struct RunBuilder {
    arena: Vec<u8>,
    count: usize,
    data_bytes: u64,
}

impl RunBuilder {
    /// Empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Empty builder with room for `framed` bytes of framed records (a
    /// spill knows its length exactly, an uncombined merge a bound).
    pub(crate) fn with_capacity(framed: usize) -> Self {
        RunBuilder { arena: Vec::with_capacity(framed), ..Self::default() }
    }

    /// Frame one record's key-length code and value length and count it.
    fn push_lengths(&mut self, key_len: usize, val_len: usize, repeat: bool) {
        let code = key_code(key_len, repeat);
        if (code | val_len) < 0x80 {
            self.arena.extend_from_slice(&[code.to_le_bytes()[0], val_len.to_le_bytes()[0]]);
        } else {
            push_varint(&mut self.arena, code);
            push_varint(&mut self.arena, val_len);
        }
        self.count += 1;
        self.data_bytes += (key_len + val_len) as u64;
    }

    /// Append one record from raw serialized bytes. `repeat` says that
    /// `key` equals the previous record's key, which is then not stored
    /// again; a run must mark every such record.
    pub(crate) fn push_raw(&mut self, key: &[u8], value: &[u8], repeat: bool) {
        self.push_lengths(key.len(), value.len(), repeat);
        if !repeat {
            self.arena.extend_from_slice(key);
        }
        self.arena.extend_from_slice(value);
    }

    /// Append one record given as contiguous key+value bytes.
    fn push_unframed(&mut self, record: &[u8], key_len: usize, repeat: bool) {
        self.push_lengths(key_len, record.len() - key_len, repeat);
        let from = if repeat { key_len } else { 0 };
        self.arena.extend_from_slice(&record[from..]);
    }

    /// Append one record with raw key bytes and a `Writable` value
    /// serialized in place (combiner output path — no temp `Vec`), its
    /// key stored unless `repeat`. The value's length is framed in one
    /// byte once it is known; a value of 128 bytes or more moves what
    /// follows that byte over to make room.
    pub(crate) fn push_value<V: Writable>(&mut self, key: &[u8], value: &V, repeat: bool) {
        push_varint(&mut self.arena, key_code(key.len(), repeat));
        let len_at = self.arena.len();
        self.arena.push(0);
        if !repeat {
            self.arena.extend_from_slice(key);
        }
        let val_at = self.arena.len();
        value.write(&mut self.arena);
        let val_len = self.arena.len() - val_at;
        if val_len < 0x80 {
            self.arena[len_at] = val_len.to_le_bytes()[0];
        } else {
            let mut len = Vec::new();
            push_varint(&mut len, val_len);
            self.arena.splice(len_at..=len_at, len);
        }
        self.count += 1;
        self.data_bytes += (key.len() + val_len) as u64;
    }

    /// Seal into a run. Records must have been pushed in sorted key order,
    /// each repeated key marked as a repeat and no other.
    pub(crate) fn finish(self) -> SortedRun {
        debug_assert!(
            {
                let mut last: Option<&[u8]> = None;
                let mut bytes = 0;
                Records { rest: &self.arena, key: &[] }.all(|r| {
                    bytes += r.key.len() + r.value.len();
                    let framed = if r.repeat { last.is_some() } else { last < Some(r.key) };
                    last = Some(r.key);
                    framed
                }) && bytes as u64 == self.data_bytes
            },
            "RunBuilder records not pushed in sorted order with their repeats marked"
        );
        SortedRun { arena: Arc::new(self.arena), count: self.count, data_bytes: self.data_bytes }
    }
}

/// Final output of a map task: one sorted run per partition, plus the
/// I/O totals the engine charges to the virtual clock.
#[derive(Debug, Clone, Default)]
pub struct MapOutput {
    /// Sorted, combined output per partition.
    pub partitions: Vec<SortedRun>,
    /// Bytes written to local disk across all spills + the final merge.
    pub spill_bytes_written: u64,
    /// Bytes re-read from local disk by the final merge.
    pub spill_bytes_read: u64,
    /// Number of spill passes.
    pub num_spills: u32,
    /// Per-partition on-disk/on-wire sizes after map-output compression
    /// (`mapred.compress.map.output`): the engine packs each partition's
    /// run into hl-codec frames and records the framed size here. `None`
    /// means the output travels uncompressed.
    pub wire_bytes: Option<Vec<u64>>,
}

impl MapOutput {
    /// Serialized size of one partition's run.
    pub fn partition_bytes(&self, p: usize) -> u64 {
        self.partitions[p].bytes()
    }

    /// Bytes partition `p` actually occupies on the shuffle wire: the
    /// framed size when map output is compressed, the serialized size
    /// otherwise.
    pub fn wire_partition_bytes(&self, p: usize) -> u64 {
        match &self.wire_bytes {
            Some(w) => w[p],
            None => self.partition_bytes(p),
        }
    }

    /// Serialized size across all partitions.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(SortedRun::bytes).sum()
    }

    /// Move partition `r` out, leaving an empty run (single-consumer
    /// runners that will not retry the reduce).
    pub fn take_partition(&mut self, r: usize) -> SortedRun {
        std::mem::take(&mut self.partitions[r])
    }
}

/// What the spill sort reads of one buffered record. The radix passes
/// permute these 16-byte entries only — never the slots, never the record
/// bytes.
#[derive(Debug, Clone, Copy, Default)]
struct SortKey {
    /// Big-endian load of the first `min(8, key_len)` key bytes, zero
    /// padded. Two different prefixes order their keys as `memcmp` would;
    /// equal prefixes decide nothing (zero padding makes `"a"` and
    /// `"a\0"` collide) and are left to the tie pass.
    prefix: u64,
    partition: u32,
    /// Arrival number: index of this record's [`KvSlot`].
    record: u32,
}

/// Number of leading key bytes a [`SortKey`] caches.
const PREFIX_LEN: usize = 8;

/// The sortable prefix of a key slice.
#[inline]
fn key_prefix(k: &[u8]) -> u64 {
    let mut p = [0u8; PREFIX_LEN];
    let n = k.len().min(PREFIX_LEN);
    p[..n].copy_from_slice(&k[..n]);
    u64::from_be_bytes(p)
}

/// Cap on the collect arena so `u32` offsets always suffice; a spill is
/// forced at this size even if the configured limit is larger.
const MAX_ARENA: usize = 1 << 31;

/// The in-memory collect/sort/spill buffer for one map task.
pub struct SortBuffer<K: SortableKey, V: Writable> {
    num_partitions: usize,
    buffer_limit: usize,
    /// Flat kvbuffer: every buffered record's key and value bytes, back
    /// to back in collect order.
    arena: Vec<u8>,
    /// Where each buffered record lies in `arena`, in collect order.
    slots: Vec<KvSlot>,
    /// One sort entry per buffered record; sorting happens here.
    keys: Vec<SortKey>,
    /// The radix sort's second buffer, kept between spills.
    scratch: Vec<SortKey>,
    /// High-water mark of buffered bytes (the in-mapper-combining memory
    /// comparison in experiment N2 reads this).
    pub peak_buffered: usize,
    spills: Vec<Vec<SortedRun>>,
    spill_bytes_written: u64,
    partitioner: Option<PartitionFn<K>>,
    _types: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: SortableKey, V: Writable> SortBuffer<K, V> {
    /// Buffer with `num_partitions` outputs and a spill threshold.
    pub fn new(num_partitions: usize, buffer_limit: usize) -> Self {
        assert!(num_partitions > 0);
        SortBuffer {
            num_partitions,
            buffer_limit: buffer_limit.clamp(1, MAX_ARENA),
            arena: Vec::new(),
            slots: Vec::new(),
            keys: Vec::new(),
            scratch: Vec::new(),
            peak_buffered: 0,
            spills: Vec::new(),
            spill_bytes_written: 0,
            partitioner: None,
            _types: std::marker::PhantomData,
        }
    }

    /// Replace hash partitioning with a custom partitioner.
    pub fn with_partitioner(mut self, f: Option<PartitionFn<K>>) -> Self {
        self.partitioner = f;
        self
    }

    /// Serialize and buffer one pair; spills (sort + combine) when full.
    pub fn collect<C>(
        &mut self,
        key: &K,
        value: &V,
        combiner: Option<&mut C>,
        counters: &mut Counters,
    ) where
        C: Combiner<K = K, V = V>,
    {
        let key_off = self.arena.len();
        key.encode_ordered(&mut self.arena);
        let val_off = self.arena.len();
        value.write(&mut self.arena);
        let kbytes = &self.arena[key_off..val_off];
        let p = match &self.partitioner {
            Some(f) => f(key, kbytes, self.num_partitions).min(self.num_partitions - 1),
            None => default_partition(kbytes, self.num_partitions),
        };
        self.keys.push(SortKey {
            prefix: key_prefix(kbytes),
            partition: to_u32(p),
            record: to_u32(self.slots.len()),
        });
        self.slots.push(KvSlot::new(key_off, val_off, self.arena.len()));
        self.peak_buffered = self.peak_buffered.max(self.arena.len());
        if self.arena.len() >= self.buffer_limit {
            self.spill(combiner, counters);
        }
    }

    /// Force a spill of the current buffer (sort, combine, "write").
    fn spill<C>(&mut self, combiner: Option<&mut C>, counters: &mut Counters)
    where
        C: Combiner<K = K, V = V>,
    {
        if self.keys.is_empty() {
            return;
        }
        counters.incr_task(TaskCounter::SpilledRecords, self.keys.len() as u64);

        let np = self.num_partitions;
        let starts = radix_sort(&mut self.keys, &mut self.scratch, np);
        let mut ordered: Vec<KvSlot> =
            self.keys.iter().map(|k| self.slots[to_usize(k.record)]).collect();
        let repeats = sort_ties(&self.keys, &mut ordered, &self.arena);

        let mut combining = combiner.map(Combining::new);
        let mut spill: Vec<SortedRun> = Vec::with_capacity(np);
        for p in 0..np {
            let part = starts[p]..starts[p + 1];
            let run = match combining.as_mut() {
                Some(c) => c.entries(&self.arena, &ordered, &repeats, part),
                None => copy_entries(&self.arena, &ordered, &repeats, part),
            };
            self.spill_bytes_written += run.bytes();
            spill.push(run);
        }
        if let Some(c) = combining {
            c.count(counters);
        }
        self.spills.push(spill);
        self.arena.clear();
        self.slots.clear();
        self.keys.clear();
    }

    /// Final spill + merge of all spills into one sorted run per partition.
    pub fn finish<C>(mut self, combiner: Option<&mut C>, counters: &mut Counters) -> MapOutput
    where
        C: Combiner<K = K, V = V>,
    {
        let mut combiner = combiner;
        self.spill(combiner.as_deref_mut(), counters);
        let num_spills = u32::try_from(self.spills.len()).expect("spill count fits in u32");
        let mut merged: Vec<SortedRun> = Vec::with_capacity(self.num_partitions);
        let mut merge_read = 0u64;
        let mut merge_written = 0u64;
        let mut combining = combiner.map(Combining::new);

        for p in 0..self.num_partitions {
            let runs: Vec<SortedRun> =
                self.spills.iter_mut().map(|s| std::mem::take(&mut s[p])).collect();
            let out = if runs.len() == 1 {
                runs.into_iter().next().unwrap()
            } else if runs.is_empty() {
                SortedRun::default()
            } else {
                // Multi-spill merge re-reads and re-writes everything, and
                // the combiner runs once more over merged groups.
                let read = crate::merge::runs_bytes(&runs);
                merge_read += read;
                let out = match combining.as_mut() {
                    Some(c) => {
                        let mut b = RunBuilder::new();
                        let mut groups = crate::merge::merge_groups(&runs);
                        let mut values = Vec::new();
                        while let Some(kbytes) = groups.next_into(&mut values) {
                            c.group(kbytes, values.iter().copied(), &mut b);
                        }
                        b.finish()
                    }
                    None => {
                        // A key that ends one spill's stretch and starts
                        // another's is stored once in the output, so the
                        // output is at most as long as its inputs together
                        // and its exact length is known only once merged
                        // (a second merge to size it would cost as much as
                        // the first): reserve the inputs' length, then
                        // give the tail back (glibc's realloc shrinks in
                        // place, without a copy).
                        let framed = runs.iter().map(SortedRun::framed_len).sum();
                        let mut b = RunBuilder::with_capacity(framed);
                        let mut merge = crate::merge::merge_iter(&runs);
                        while let Some(record) = merge.next_record() {
                            b.push_raw(record.key, record.value, record.repeat);
                        }
                        b.arena.shrink_to_fit();
                        b.finish()
                    }
                };
                merge_written += out.bytes();
                out
            };
            merged.push(out);
        }
        if let Some(c) = combining {
            c.count(counters);
        }

        MapOutput {
            partitions: merged,
            spill_bytes_written: self.spill_bytes_written + merge_written,
            spill_bytes_read: merge_read,
            num_spills,
            wire_bytes: None,
        }
    }
}

/// Stable LSD radix sort of `keys` by `(partition, prefix)`, byte digits.
/// Returns the partition boundaries: partition `p` ends up in
/// `keys[starts[p]..starts[p + 1]]`. `scratch` is the second buffer the
/// passes ping-pong through; its contents on return are meaningless.
fn radix_sort(keys: &mut Vec<SortKey>, scratch: &mut Vec<SortKey>, np: usize) -> Vec<usize> {
    let n = keys.len();
    let mut digits = [[0usize; 256]; PREFIX_LEN];
    let mut starts = vec![0usize; np + 1];
    for k in keys.iter() {
        for (hist, b) in digits.iter_mut().zip(k.prefix.to_be_bytes()) {
            hist[usize::from(b)] += 1;
        }
        starts[to_usize(k.partition)] += 1;
    }
    scratch.resize(n, SortKey::default());

    // Least significant prefix byte first. A digit on which every key
    // agrees would copy the array onto itself, so it costs nothing.
    for (d, hist) in digits.iter_mut().enumerate().rev() {
        if hist.contains(&n) {
            continue;
        }
        exclusive_sum(hist);
        scatter(keys, scratch, hist, |k| usize::from(k.prefix.to_be_bytes()[d]));
    }

    // The partition is the most significant digit.
    let single = starts.contains(&n);
    exclusive_sum(&mut starts);
    if !single {
        scatter(keys, scratch, &mut starts.clone(), |k| to_usize(k.partition));
    }
    starts
}

/// One stable counting-sort pass: move every key to the next free place
/// of its bucket in `scratch`, then make `scratch` the current array.
/// `cursors` holds each bucket's start offset and is used up.
fn scatter(
    keys: &mut Vec<SortKey>,
    scratch: &mut Vec<SortKey>,
    cursors: &mut [usize],
    bucket: impl Fn(&SortKey) -> usize,
) {
    for k in keys.iter() {
        let cursor = &mut cursors[bucket(k)];
        scratch[*cursor] = *k;
        *cursor += 1;
    }
    std::mem::swap(keys, scratch);
}

/// Turn bucket counts into bucket start offsets, in place.
fn exclusive_sum(counts: &mut [usize]) {
    let mut sum = 0;
    for c in counts {
        sum += std::mem::replace(c, sum);
    }
}

/// One bit per sorted record of a spill, set when the record's key
/// repeats the key before it: what the tie pass learns and the spill's
/// framing and combining read. A bit, not a `bool`, because it is live
/// beside the collect buffer at a spill, the map's high-water mark.
struct Repeats(Vec<u64>);

impl Repeats {
    fn new(records: usize) -> Self {
        Repeats(vec![0; records.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// The tie pass: `keys` is sorted by `(partition, prefix)` and `ordered`
/// holds the matching slots; finish the job inside each run of equal
/// `(partition, prefix)`, where the radix passes left arrival order.
/// Returns which sorted records repeat the key before them.
fn sort_ties(keys: &[SortKey], ordered: &mut [KvSlot], arena: &[u8]) -> Repeats {
    // Inside such a run, keys of one length with equal bytes past the
    // prefix are identical.
    let same = |a: &KvSlot, b: &KvSlot| {
        a.key_len == b.key_len && arena[a.suffix_range()] == arena[b.suffix_range()]
    };
    let mut repeats = Repeats::new(keys.len());
    let mut i = 0;
    while i < keys.len() {
        let (prefix, partition) = (keys[i].prefix, keys[i].partition);
        let mut j = i + 1;
        while j < keys.len() && keys[j].prefix == prefix && keys[j].partition == partition {
            j += 1;
        }
        let run = &mut ordered[i..j];
        let first = run[0];
        if run[1..].iter().all(|s| same(&first, s)) {
            // One key, already in arrival order: nothing to order.
            (i + 1..j).for_each(|k| repeats.set(k));
        } else {
            run.sort_by(|a, b| arena[a.key_range()].cmp(&arena[b.key_range()]));
            for (k, pair) in run.windows(2).enumerate() {
                if same(&pair[0], &pair[1]) {
                    repeats.set(i + 1 + k);
                }
            }
        }
        i = j;
    }
    repeats
}

/// Write the records of sorted slots out framed, back to back, as a spill
/// file would hold them: every merge that reads the run then walks memory
/// forwards instead of gathering over the collect arena.
fn copy_entries(
    arena: &[u8],
    ordered: &[KvSlot],
    repeats: &Repeats,
    part: Range<usize>,
) -> SortedRun {
    let framed = part.clone().map(|i| ordered[i].framed_len(repeats.get(i))).sum();
    let mut out = RunBuilder::with_capacity(framed);
    for i in part {
        let s = ordered[i];
        out.push_unframed(&arena[s.record_range()], s.key_len(), repeats.get(i));
    }
    out.finish()
}

/// One pass of the combiner — a spill, or the final merge — with what the
/// pass keeps between groups, so a group costs only what
/// [`Combiner::combine`]'s signature demands (the decoded key, the by-value
/// `Vec` of values).
struct Combining<'c, C: Combiner> {
    combiner: &'c mut C,
    /// The combiner's output for the group in hand; empty between groups.
    folded: Vec<C::V>,
    /// Records fed to and emitted by the combiner so far in this pass.
    input_records: u64,
    output_records: u64,
}

impl<'c, C: Combiner> Combining<'c, C> {
    fn new(combiner: &'c mut C) -> Self {
        Combining { combiner, folded: Vec::new(), input_records: 0, output_records: 0 }
    }

    /// Run the combiner over consecutive equal-key spans of the sorted
    /// slots `ordered[part]`, as the tie pass marked them, serializing its
    /// output into a fresh run.
    fn entries(
        &mut self,
        arena: &[u8],
        ordered: &[KvSlot],
        repeats: &Repeats,
        part: Range<usize>,
    ) -> SortedRun {
        let mut out = RunBuilder::new();
        let mut i = part.start;
        while i < part.end {
            let kbytes = &arena[ordered[i].key_range()];
            let mut j = i + 1;
            while j < part.end && repeats.get(j) {
                j += 1;
            }
            let values = ordered[i..j].iter().map(|s| &arena[s.record_range()][s.key_len()..]);
            self.group(kbytes, values, &mut out);
            i = j;
        }
        out.finish()
    }

    /// Decode one `(key, values)` group, fold it through the combiner, and
    /// push the folded records (same key bytes, new values) onto `out`:
    /// groups come in ascending key order, so the first output stores the
    /// key and the later ones repeat it.
    fn group<'a>(
        &mut self,
        kbytes: &[u8],
        values: impl Iterator<Item = &'a [u8]>,
        out: &mut RunBuilder,
    ) {
        let mut kslice = kbytes;
        let key = C::K::decode_ordered(&mut kslice).expect("combiner key round-trip");
        let values: Vec<C::V> =
            values.map(|b| C::V::from_bytes(b).expect("combiner value round-trip")).collect();
        self.input_records += values.len() as u64;
        self.combiner.combine(&key, values, &mut self.folded);
        self.output_records += self.folded.len() as u64;
        for (i, v) in self.folded.drain(..).enumerate() {
            out.push_value(kbytes, &v, i > 0);
        }
    }

    /// Add the pass's totals to the task's counters. A pass that saw no
    /// group registers nothing, as counting group by group would not.
    fn count(self, counters: &mut Counters) {
        if self.input_records > 0 {
            counters.incr_task(TaskCounter::CombineInputRecords, self.input_records);
            counters.incr_task(TaskCounter::CombineOutputRecords, self.output_records);
        }
    }
}

#[cfg(test)]
impl SortedRun {
    /// Build a run from owned pairs of already-serialized bytes, sorting
    /// them by raw key (stable, so equal keys keep insertion order). The
    /// unit tests' fixture builder; the engine builds runs from the
    /// collect buffer.
    pub(crate) fn from_pairs(mut pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut b = RunBuilder::new();
        let mut last: Option<&[u8]> = None;
        for (k, v) in &pairs {
            b.push_raw(k, v, last == Some(k));
            last = Some(k);
        }
        b.finish()
    }

    /// Copy out owned pairs (the unit tests compare runs by them).
    pub(crate) fn to_pairs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums counts per word — the WordCount combiner.
    struct SumCombiner;
    impl Combiner for SumCombiner {
        type K = String;
        type V = u64;
        fn combine(&mut self, _k: &String, values: Vec<u64>, out: &mut Vec<u64>) {
            out.push(values.into_iter().sum());
        }
    }

    type NoC = crate::api::NoCombiner<String, u64>;

    fn collect_all(
        buf: &mut SortBuffer<String, u64>,
        pairs: &[(&str, u64)],
        counters: &mut Counters,
    ) {
        for (k, v) in pairs {
            buf.collect::<NoC>(&k.to_string(), v, None, counters);
        }
    }

    #[test]
    fn single_partition_sorts_by_key() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(
            &mut buf,
            &[("pear", 1), ("apple", 2), ("mango", 3), ("apple", 4)],
            &mut counters,
        );
        let out = buf.finish::<NoC>(None, &mut counters);
        let keys: Vec<String> = out.partitions[0]
            .iter()
            .map(|(k, _)| {
                let mut s = k;
                String::decode_ordered(&mut s).unwrap()
            })
            .collect();
        assert_eq!(keys, vec!["apple", "apple", "mango", "pear"]);
        assert_eq!(out.num_spills, 1);
        assert_eq!(out.partitions.iter().map(|p| p.len() as u64).sum::<u64>(), 4);
    }

    #[test]
    fn equal_keys_keep_collect_order() {
        // Every pass of the spill sort is stable, so equal keys come out
        // in arrival order — what Hadoop's stable sort gives.
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(&mut buf, &[("k", 3), ("k", 1), ("k", 2)], &mut counters);
        let out = buf.finish::<NoC>(None, &mut counters);
        let values: Vec<u64> =
            out.partitions[0].iter().map(|(_, v)| u64::from_bytes(v).unwrap()).collect();
        assert_eq!(values, vec![3, 1, 2]);
    }

    #[test]
    fn partitioning_is_stable_and_complete() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(4, usize::MAX >> 1);
        let pairs: Vec<(String, u64)> = (0..100).map(|i| (format!("key{i}"), i as u64)).collect();
        for (k, v) in &pairs {
            buf.collect::<NoC>(k, v, None, &mut counters);
        }
        let out = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(out.partitions.len(), 4);
        assert_eq!(out.partitions.iter().map(|p| p.len() as u64).sum::<u64>(), 100);
        // Each partition's run is sorted by raw key bytes.
        for p in &out.partitions {
            let keys: Vec<&[u8]> = p.iter().map(|(k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "each partition sorted");
        }
    }

    #[test]
    fn combiner_folds_at_spill_time() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        for _ in 0..1000 {
            buf.collect(&"the".to_string(), &1, Some(&mut SumCombiner), &mut counters);
        }
        let out = buf.finish(Some(&mut SumCombiner), &mut counters);
        assert_eq!(out.partitions[0].len(), 1, "1000 pairs folded to 1");
        let (_, v) = out.partitions[0].iter().next().unwrap();
        assert_eq!(u64::from_bytes(v).unwrap(), 1000);
        assert_eq!(counters.task(TaskCounter::CombineInputRecords), 1000);
        assert_eq!(counters.task(TaskCounter::CombineOutputRecords), 1);
    }

    #[test]
    fn small_buffer_forces_multiple_spills_and_merge() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(2, 256);
        let words = ["alpha", "beta", "gamma", "delta"];
        for i in 0..200u64 {
            let w = words[(i % 4) as usize].to_string();
            buf.collect(&w, &1, Some(&mut SumCombiner), &mut counters);
        }
        let out = buf.finish(Some(&mut SumCombiner), &mut counters);
        assert!(out.num_spills > 1, "256-byte buffer must spill repeatedly");
        assert!(out.spill_bytes_read > 0, "merge re-reads spills");
        // After the final combine pass each word appears exactly once with
        // its total count.
        let mut totals = std::collections::BTreeMap::new();
        for p in &out.partitions {
            for (k, v) in p.iter() {
                let mut ks = k;
                let key = String::decode_ordered(&mut ks).unwrap();
                *totals.entry(key).or_insert(0u64) += u64::from_bytes(v).unwrap();
            }
        }
        for w in words {
            assert_eq!(totals[w], 50, "{w}");
        }
        // With a working final-merge combine, each word is a single record.
        assert_eq!(out.partitions.iter().map(|p| p.len() as u64).sum::<u64>(), 4);
    }

    #[test]
    fn without_combiner_all_records_survive_spills() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, 128);
        for i in 0..100u64 {
            buf.collect::<NoC>(&"k".to_string(), &i, None, &mut counters);
        }
        let out = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(out.partitions.iter().map(|p| p.len() as u64).sum::<u64>(), 100);
        let values: std::collections::BTreeSet<u64> =
            out.partitions[0].iter().map(|(_, v)| u64::from_bytes(v).unwrap()).collect();
        assert_eq!(values.len(), 100, "no values lost or duplicated");
    }

    #[test]
    fn peak_buffer_tracks_high_water() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, 10_000);
        collect_all(&mut buf, &[("aaaa", 1), ("bbbb", 2)], &mut counters);
        let peak = buf.peak_buffered;
        assert!(peak > 0);
        buf.spill::<NoC>(None, &mut counters);
        collect_all(&mut buf, &[("c", 3)], &mut counters);
        assert_eq!(buf.peak_buffered, peak, "smaller second fill keeps old peak");
    }

    #[test]
    fn spilled_records_counter_counts_every_spill_pass() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(&mut buf, &[("a", 1), ("b", 2)], &mut counters);
        let _ = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(counters.task(TaskCounter::SpilledRecords), 2);
    }

    #[test]
    fn sorted_run_clone_shares_arena() {
        let run = SortedRun::from_pairs(vec![
            (b"b".to_vec(), b"2".to_vec()),
            (b"a".to_vec(), b"1".to_vec()),
        ]);
        let dup = run.clone();
        assert_eq!(run.to_pairs(), dup.to_pairs());
        assert_eq!(run.iter().next().unwrap().0, b"a");
        assert!(Arc::ptr_eq(&run.arena, &dup.arena), "clone must not copy bytes");
        assert_eq!(run.bytes(), 4);
        // Two one-byte lengths per record frame it.
        assert_eq!(run.framed_len(), 8);
    }

    #[test]
    #[should_panic(expected = "fit in u32")]
    fn slots_refuse_an_arena_past_u32_instead_of_wrapping() {
        let past = usize::try_from(u32::MAX).unwrap() + 1;
        let _ = KvSlot::new(past - 8, past - 4, past);
    }

    #[test]
    fn run_builder_roundtrip() {
        let mut b = RunBuilder::new();
        b.push_raw(b"aa", b"xyz", false);
        b.push_value(b"bb", &7u64, false);
        b.push_value(b"bb", &8u64, true);
        let run = b.finish();
        assert_eq!(run.len(), 3);
        let mut records = run.iter();
        assert_eq!(records.next(), Some((&b"aa"[..], &b"xyz"[..])));
        let (k, v) = records.next().unwrap();
        assert_eq!(k, b"bb");
        assert_eq!(u64::from_bytes(v).unwrap(), 7);
        let (k, v) = records.next().unwrap();
        assert_eq!(k, b"bb", "a repeat reads back its key");
        assert_eq!(u64::from_bytes(v).unwrap(), 8);
        assert_eq!(records.next(), None);
        assert_eq!(run.bytes(), 5 + 2 * (2 + 8), "a repeat's key is still charged");
        assert_eq!(run.framed_len(), (2 + 2 + 3) + (2 + 2 + 8) + (2 + 8));
        let flat: Vec<u8> = run.iter().flat_map(|(k, v)| [k, v].concat()).collect();
        assert_eq!(run.record_bytes(&mut vec![9; 100]), flat, "the buffer is overwritten");
    }

    #[test]
    fn varints_change_width_at_each_seventh_bit() {
        let edges = [0, 1, 127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21, usize::MAX];
        let widths = [1, 1, 1, 2, 2, 3, 3, 4, usize::BITS.div_ceil(7) as usize];
        for (n, width) in edges.into_iter().zip(widths) {
            let mut bytes = vec![0xEE];
            push_varint(&mut bytes, n);
            assert_eq!(bytes.len() - 1, width, "{n}");
            assert_eq!(varint_len(n), width, "{n}");
            let mut at = 1;
            assert_eq!(read_varint(&bytes, &mut at), n);
            assert_eq!(at, bytes.len());
        }
        assert_eq!(
            {
                let mut b = Vec::new();
                push_varint(&mut b, 300);
                b
            },
            [0xAC, 0x02],
            "LEB128: low seven bits first"
        );
    }

    /// A record as owned key and value bytes.
    type Pair = (Vec<u8>, Vec<u8>);

    /// A run's length by the framing rule, from its records alone: per
    /// record a key-length code (the key's length plus one, or 0 for a key
    /// equal to the one before), the value's length, the key unless it
    /// repeats, the value.
    fn framed_by_rule(pairs: &[Pair]) -> usize {
        let mut last = None;
        pairs
            .iter()
            .map(|(k, v)| {
                let key = if last == Some(k) { 1 } else { varint_len(k.len() + 1) + k.len() };
                last = Some(k);
                key + varint_len(v.len()) + v.len()
            })
            .sum()
    }

    #[test]
    fn spills_and_merges_allocate_their_frames_exactly() {
        // A spill's arena is sized to its framed length before the first
        // byte is copied. An uncombined merge reserves its inputs' length
        // and gives back the tail a key stored once across spills left.
        // Either way the arena holds exactly the framing rule's bytes,
        // each key stored once per stretch whether the stretch lies in one
        // spill or is merged from several. One spill hands its run on as
        // the output; many are merged.
        for (limit, one_spill) in [(usize::MAX >> 1, true), (200, false)] {
            let mut counters = Counters::new();
            let mut buf: SortBuffer<String, u64> = SortBuffer::new(3, limit);
            for i in 0..500u64 {
                let key = "k".repeat(1 + (i % 150) as usize);
                buf.collect::<NoC>(&key, &i, None, &mut counters);
                let short = ["a", "b", "c"][(i % 3) as usize].to_string();
                buf.collect::<NoC>(&short, &i, None, &mut counters);
            }
            let out = buf.finish::<NoC>(None, &mut counters);
            if one_spill {
                assert_eq!(out.num_spills, 1, "{limit}");
            } else {
                assert!(out.num_spills > 10, "{limit}: {}", out.num_spills);
            }
            for run in &out.partitions {
                assert_eq!(run.arena.capacity(), run.arena.len(), "{limit}");
                assert_eq!(run.framed_len(), framed_by_rule(&run.to_pairs()), "{limit}");
            }
        }
    }

    #[test]
    fn a_stretch_of_one_key_frames_ten_bytes_a_repeat() {
        // A 9-byte key (eight letters and the terminator) with `u64`
        // values: 19 bytes for the record that stores it, 10 for each
        // record after. Kept in one spill, merged from a few, and merged
        // from a spill per record, where every record is a switch of runs.
        let n = 1000u64;
        for limit in [usize::MAX >> 1, 1000, 17] {
            let mut counters = Counters::new();
            let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, limit);
            for i in 0..n {
                buf.collect::<NoC>(&"w0000042".to_string(), &i, None, &mut counters);
            }
            let out = buf.finish::<NoC>(None, &mut counters);
            let run = &out.partitions[0];
            assert_eq!(run.len(), n as usize, "{limit}");
            let framed = 19 + (n as usize - 1) * 10;
            assert_eq!(run.framed_len(), framed, "{limit}: {} spills", out.num_spills);
        }
    }

    #[test]
    fn a_wordcount_split_frames_at_most_eleven_bytes_a_record() {
        // The memory guard: a 4 MiB wordcount split's map output, as the
        // benchmark's jobs hold it (1 MiB buffer, 4 partitions). Storing
        // each key once per stretch brings a record from 19 framed bytes
        // to about 10.4; 11 leaves room for a corpus with more distinct
        // words per spill, none for a key stored per record again.
        let (text, _) = hl_datagen::CorpusGen::new(42).generate_bytes(4 << 20);
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(4, 1 << 20);
        for word in text.split_whitespace() {
            buf.collect::<NoC>(&word.to_string(), &1, None, &mut counters);
        }
        let out = buf.finish::<NoC>(None, &mut counters);
        let records: usize = out.partitions.iter().map(SortedRun::len).sum();
        let framed: usize = out.partitions.iter().map(SortedRun::framed_len).sum();
        assert!(records > 400_000 && out.num_spills > 1, "{records} records");
        let per_record = framed as f64 / records as f64;
        assert!(per_record <= 11.0, "{per_record:.2} framed bytes a record");
    }

    /// A key that is its own bytes: `"a"` and `"a\0"` stay two keys of
    /// their own lengths, and the empty key is one.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct RawKey(Vec<u8>);

    impl Writable for RawKey {
        fn write(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }
        fn read(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
            Ok(RawKey(std::mem::take(buf).to_vec()))
        }
    }

    impl SortableKey for RawKey {
        fn encode_ordered(&self, buf: &mut Vec<u8>) {
            self.write(buf);
        }
        fn decode_ordered(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
            Self::read(buf)
        }
    }

    /// A value that is its own bytes, any length.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob(Vec<u8>);

    impl Writable for Blob {
        fn write(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }
        fn read(buf: &mut &[u8]) -> hl_common::error::Result<Self> {
            Ok(Blob(std::mem::take(buf).to_vec()))
        }
    }

    /// Hands every value on: a group of n records comes out as n, the
    /// later n - 1 framed as repeats by `push_value`.
    struct Identity;
    impl Combiner for Identity {
        type K = RawKey;
        type V = Blob;
        fn combine(&mut self, _k: &RawKey, values: Vec<Blob>, out: &mut Vec<Blob>) {
            out.extend(values);
        }
    }

    /// Keys at the framing's and the sort's edges: the empty key, `"a"`
    /// beside `"a\0"`, keys that share the whole 8-byte prefix, and keys
    /// of 126, 127 and 128 bytes around the one/two-byte edge of the
    /// code `len + 1`.
    fn edge_key(i: usize) -> Vec<u8> {
        let x = |n: usize| vec![b'x'; n];
        match i {
            0 => Vec::new(),
            1 => b"a".to_vec(),
            2 => b"a\0".to_vec(),
            3 => b"prefixed".to_vec(),
            4 => b"prefixed\0".to_vec(),
            5 => b"prefixed-a".to_vec(),
            6 => b"prefixed-b".to_vec(),
            7 => x(126),
            8 => x(127),
            9 => [x(126), b"y".to_vec()].concat(),
            _ => x(128),
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_framed_runs_give_back_what_was_pushed(
            lens in proptest::collection::vec(
                (0usize..300, 0usize..300, proptest::prelude::any::<bool>()),
                0..40,
            ),
        ) {
            // Lengths on both sides of the one/two-byte varint edges (a
            // 127-byte key has code 128); a record drawn as a repeat takes
            // the key before it, any other sorts after it. Even records go
            // in as raw bytes, odd ones through `push_value`.
            let mut pairs: Vec<Pair> = Vec::new();
            for (i, &(k, v, repeat)) in lens.iter().enumerate() {
                let key = match pairs.last() {
                    Some((last, _)) if repeat => last.clone(),
                    _ => {
                        let mut key = (i as u32).to_be_bytes().to_vec();
                        key.resize(4 + k, 0xAB);
                        key
                    }
                };
                pairs.push((key, vec![0xCD; v]));
            }
            let mut b = RunBuilder::with_capacity(0);
            for (i, (k, v)) in pairs.iter().enumerate() {
                let repeat = i > 0 && pairs[i - 1].0 == *k;
                if i % 2 == 0 {
                    b.push_raw(k, v, repeat);
                } else {
                    b.push_value(k, &Blob(v.clone()), repeat);
                }
            }
            let run = b.finish();
            proptest::prop_assert_eq!(run.len(), pairs.len());
            let bytes: usize = pairs.iter().map(|(k, v)| k.len() + v.len()).sum();
            proptest::prop_assert_eq!(run.bytes(), bytes as u64);
            proptest::prop_assert_eq!(run.framed_len(), framed_by_rule(&pairs));
            let flat: Vec<u8> = pairs.iter().flat_map(|(k, v)| [&k[..], &v[..]].concat()).collect();
            proptest::prop_assert_eq!(run.record_bytes(&mut Vec::new()), &flat[..]);
            proptest::prop_assert_eq!(run.to_pairs(), pairs.clone());
            proptest::prop_assert_eq!(SortedRun::from_pairs(pairs.clone()).arena, run.arena);
        }

        #[test]
        fn prop_elided_keys_survive_spill_merge_and_grouping(
            stretches in proptest::collection::vec(
                (0usize..11, 1usize..40, proptest::prop_oneof![0usize..8, 120usize..136]),
                0..24,
            ),
            maps in 1usize..4,
            parts in 1usize..4,
            limit in proptest::prop_oneof![1usize..64, 64usize..2048, proptest::strategy::Just(usize::MAX >> 1)],
            combine in proptest::prelude::any::<bool>(),
        ) {
            // Stretches of one key (long ones, and the same key again in a
            // later stretch), cut into chunks of seven records dealt to the
            // maps in turn, so equal keys are split across spills and
            // across maps. Each value starts with its record's number, and
            // with the identity combiner values of 128 bytes or more take
            // `push_value`'s longer length. Reference: the owned pairs,
            // stably sorted by key.
            let mut records: Vec<Pair> = Vec::new();
            for &(key, count, pad) in &stretches {
                for _ in 0..count {
                    let mut value = (records.len() as u32).to_be_bytes().to_vec();
                    value.resize(4 + pad, 0xEE);
                    records.push((edge_key(key), value));
                }
            }
            let sorted = |mut pairs: Vec<Pair>| {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                pairs
            };
            let mut outputs = Vec::new();
            let mut wanted: Vec<Vec<Vec<Pair>>> = Vec::new();
            for m in 0..maps {
                let mine: Vec<&Pair> =
                    records.iter().enumerate().filter(|(i, _)| (i / 7) % maps == m).map(|(_, r)| r).collect();
                let mut counters = Counters::new();
                let mut buf: SortBuffer<RawKey, Blob> = SortBuffer::new(parts, limit);
                let mut want = vec![Vec::new(); parts];
                let mut identity = Identity;
                for (k, v) in &mine {
                    let c = combine.then_some(&mut identity);
                    buf.collect(&RawKey(k.clone()), &Blob(v.clone()), c, &mut counters);
                    want[default_partition(k, parts)].push((k.clone(), v.clone()));
                }
                let out = buf.finish(combine.then_some(&mut identity), &mut counters);
                let want: Vec<_> = want.into_iter().map(sorted).collect();
                for (p, (run, want)) in out.partitions.iter().zip(&want).enumerate() {
                    proptest::prop_assert_eq!(&run.to_pairs(), want, "map {} partition {}", m, p);
                    let bytes: usize = want.iter().map(|(k, v)| k.len() + v.len()).sum();
                    proptest::prop_assert_eq!(run.bytes(), bytes as u64);
                    let flat: Vec<u8> = want.iter().flat_map(|(k, v)| [&k[..], &v[..]].concat()).collect();
                    proptest::prop_assert_eq!(run.record_bytes(&mut Vec::new()), &flat[..]);
                    proptest::prop_assert_eq!(run.framed_len(), framed_by_rule(want));
                }
                outputs.push(out);
                wanted.push(want);
            }
            // The reduce side: partition p of every map, merged and grouped,
            // values in map order then record order.
            for p in 0..parts {
                let runs: Vec<SortedRun> = outputs.iter().map(|o| o.partitions[p].clone()).collect();
                let all = sorted(wanted.iter().flat_map(|w| w[p].clone()).collect());
                let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
                for (k, v) in &all {
                    match groups.last_mut() {
                        Some((last, values)) if last == k => values.push(v.clone()),
                        _ => groups.push((k.clone(), vec![v.clone()])),
                    }
                }
                let merged: Vec<(Vec<u8>, Vec<Vec<u8>>)> = crate::merge::merge_groups(&runs)
                    .map(|(k, vs)| (k.to_vec(), vs.into_iter().map(<[u8]>::to_vec).collect()))
                    .collect();
                proptest::prop_assert_eq!(merged, groups, "partition {}", p);
                // The merge's repeat marks frame its output by the rule too.
                let mut b = RunBuilder::new();
                let mut merge = crate::merge::merge_iter(&runs);
                while let Some(record) = merge.next_record() {
                    b.push_raw(record.key, record.value, record.repeat);
                }
                let run = b.finish();
                proptest::prop_assert_eq!(run.framed_len(), framed_by_rule(&all));
                proptest::prop_assert_eq!(run.to_pairs(), all);
            }
        }
    }
}
