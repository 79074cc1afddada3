//! The hash index under the executor's keyed structures, and those structures.
//!
//! [`FlatIndex`] is an open-addressing table that stores no keys: a
//! power-of-two array of `(hash tag, entry id)` slots probed linearly,
//! plus the full hash of every entry in insertion order. Entry ids are
//! dense and ascending, so whatever the caller keeps per entry lives in
//! plain arenas indexed by id — and iterating those arenas *is*
//! first-appearance order. Key equality is the caller's closure over its
//! own arena.
//!
//! On top of it:
//!
//! * [`KeyTable`] — distinct `width`-column keys → dense group ids (Γ
//!   and the key side of [`JoinTable`]);
//! * [`JoinTable`] — a key table plus, per distinct key, its build rows
//!   in build order, stored contiguously;
//! * [`DistinctSet`] — one `(group id, item)` set per DISTINCT aggregate
//!   of an operator, replacing a set per group;
//! * [`CorrMemo`] — the correlated-subquery memo.
//!
//! A key is columns of its operator's rows — the planner adds a computed
//! key as a χ column first — presented as a [`Key`]: a loop's input's
//! key is read off its columns ([`TableKey`], a chunk of keys hashed a
//! column at a time) in place ([`TableRow`]), a row streaming through a
//! chain's in place from the row ([`KeyRef`]). Both forms hash and
//! compare as [`Value`]'s own `Hash` and `Eq` do — a typed column slot
//! as a stack temporary — so there is one key function, and a stored key
//! is built only when it is new. A sealed [`JoinTable`] is spread sparser
//! than the ¾ load a growing index keeps: most of its lookups miss.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bypass_catalog::TableColumns;
use bypass_types::{value_heap_bytes, Column, Error, FxHasher, Relation, Result, Tuple, Value};

use crate::row::Row;

const MIN_SLOTS: usize = 8;
/// The largest slot array a sealed [`JoinTable`] is spread to: 2 MiB of
/// slots, a core's L2 cache on the 2-vCPU Xeon the benchmark runs on.
/// On a 75 000-key build probed 299 976 times, caps of 2¹⁶ to 2²⁰ slots
/// read alike within that host's noise (EXPERIMENTS.md *PR 38*); past
/// the L2 the slots a miss saves turn into cache misses.
const SPARSE_SLOTS: usize = 1 << 18;
/// 2⁶⁴/φ, the Fibonacci-hashing multiplier.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// `tag << 32 | entry id + 1`; zero is a vacant slot, so a fresh slot
/// array is zeroed memory the allocator hands out without touching it.
/// The tag is the low half of the entry's hash — the slot position comes
/// from the high bits, so the two are independent.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot(u64);

const VACANT: Slot = Slot(0);

impl Slot {
    #[inline]
    fn new(hash: u64, entry: usize) -> Slot {
        assert!(entry < u32::MAX as usize, "hash index entry ids are 32-bit");
        Slot(hash << 32 | (entry as u64 + 1))
    }

    #[inline]
    fn tagged(self, hash: u64) -> bool {
        (self.0 >> 32) as u32 == hash as u32
    }

    #[inline]
    fn entry(self) -> u32 {
        self.0 as u32 - 1
    }
}

/// Open-addressing hash index from 64-bit hashes to dense entry ids
/// (see the module docs). Never more than three quarters full; an empty
/// index owns no memory.
#[derive(Default)]
pub(crate) struct FlatIndex {
    slots: Vec<Slot>,
    /// Entry id → full hash, in insertion order.
    hashes: Vec<u64>,
}

impl FlatIndex {
    /// Room for `entries` insertions without a rehash.
    pub(crate) fn with_capacity(entries: usize) -> FlatIndex {
        let mut index = FlatIndex::default();
        if entries > 0 {
            index.slots = vec![VACANT; slots_for(entries)];
            index.hashes.reserve(entries);
        }
        index
    }

    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        // FxHash's own top bits will not do: its multiplier is 2⁶⁴/π,
        // and π ≈ 355/113 makes consecutive integers pile up in 355
        // clusters. One golden-ratio multiply spreads them evenly.
        (hash.wrapping_mul(GOLDEN) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The entry with this `hash` that `eq` accepts. `eq` only sees
    /// entries on `hash`'s probe run whose 32-bit tag matches, oldest
    /// first — a `false` from it is a hash collision, not a probe step.
    #[inline(always)]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot == VACANT {
                return None;
            }
            if slot.tagged(hash) && eq(slot.entry()) {
                return Some(slot.entry());
            }
            at = (at + 1) & mask;
        }
    }

    /// [`Self::find`], appending a new entry on a miss: `(id, inserted)`.
    /// A new entry's id is the previous [`Self::len`].
    #[inline(always)]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        if (self.hashes.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot == VACANT {
                let entry = self.hashes.len();
                self.slots[at] = Slot::new(hash, entry);
                self.hashes.push(hash);
                return (entry as u32, true);
            }
            if slot.tagged(hash) && eq(slot.entry()) {
                return (slot.entry(), false);
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the slot array.
    #[cold]
    fn grow(&mut self) {
        self.reseat((self.slots.len() * 2).max(MIN_SLOTS));
    }

    /// Re-seat the entries at most a quarter full, so a lookup that
    /// finds nothing stops within a slot or two — unless that takes
    /// more than `max_slots` slots (or fewer than there are).
    fn spread(&mut self, max_slots: usize) {
        let sparse = (self.len() * 4).next_power_of_two().max(MIN_SLOTS);
        if sparse > self.slots.len() && sparse <= max_slots {
            self.reseat(sparse);
        }
    }

    /// Move to a slot array of `slots` slots and re-seat every entry in
    /// id order, which keeps equal-hash entries in insertion order along
    /// their probe run.
    fn reseat(&mut self, slots: usize) {
        self.slots = vec![VACANT; slots];
        let mask = self.slots.len() - 1;
        for (entry, &hash) in self.hashes.iter().enumerate() {
            let mut at = self.home(hash);
            while self.slots[at] != VACANT {
                at = (at + 1) & mask;
            }
            self.slots[at] = Slot::new(hash, entry);
        }
    }
}

/// Smallest power-of-two slot count that holds `entries` at ≤ ¾ load.
fn slots_for(entries: usize) -> usize {
    (entries * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
}

/// The error a key or argument column past its row's arity raises.
pub(crate) fn out_of_range(c: usize) -> Error {
    Error::execution(format!("column #{c} out of range"))
}

/// Is `v` a value SQL's `=` is never TRUE on — NULL, or a NaN? A join
/// key holding one matches no key.
#[inline]
fn never_equal(v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Float(f) => f.is_nan(),
        _ => false,
    }
}

/// The key columns of a loop's input: how the loop reads its rows' keys
/// without touching the rows. A chunk of keys is hashed a key column at
/// a time ([`Self::hash_chunk`]); each key then travels as a
/// [`TableRow`] and is compared in place, slot by slot, so it hashes and
/// compares as the row's own key would. The columns are shared handles,
/// so a key outlives the loop frame that built a transient column set.
pub(crate) struct TableKey(Vec<Arc<Column>>);

/// The hashes of a chunk of table keys, one per lane, and which lanes
/// hold a key value SQL's `=` is never TRUE on. Scratch a loop reuses
/// from chunk to chunk.
#[derive(Default)]
pub(crate) struct ChunkHashes {
    lanes: Vec<FxHasher>,
    unequal: Vec<bool>,
}

impl ChunkHashes {
    /// Lane `k`'s hash.
    #[inline]
    pub(crate) fn hash(&self, k: usize) -> u64 {
        self.lanes[k].finish()
    }

    /// Does lane `k`'s key hold a NULL or a NaN, so that a join finds
    /// it no partner? (Γ groups such keys like any other.)
    #[inline]
    pub(crate) fn unequal(&self, k: usize) -> bool {
        self.unequal[k]
    }
}

impl TableKey {
    /// The key on columns `cols` of `columns`' rows — built here, on the
    /// caller's thread — or the first of them past the arity, which the
    /// row that reads it raises.
    pub(crate) fn new(columns: &TableColumns, cols: &[usize]) -> Result<TableKey, usize> {
        let key = cols.iter().map(|&c| columns.get(c).cloned().ok_or(c));
        key.collect::<Result<_, _>>().map(TableKey)
    }

    /// Hash the keys of table rows `rows`, lane by lane into `out`: the
    /// hash [`Key::hash`] gives each key, bit for bit, computed one key
    /// column at a time — a typed column in a loop over its numbers, a
    /// [`Column::Values`] through [`Value`]'s own `Hash` — marking the
    /// lanes whose value is NULL or NaN.
    pub(crate) fn hash_chunk(
        &self,
        rows: impl Iterator<Item = usize> + Clone,
        out: &mut ChunkHashes,
    ) {
        let mut start = FxHasher::default();
        start.write_usize(self.0.len());
        out.lanes.clear();
        out.lanes.extend(rows.clone().map(|_| start));
        out.unequal.clear();
        out.unequal.resize(out.lanes.len(), false);
        for column in &self.0 {
            let lanes = out.lanes.iter_mut().zip(rows.clone());
            match &**column {
                Column::Int(xs) => lanes.for_each(|(h, r)| Value::Int(xs[r]).hash(h)),
                Column::Float(xs) => {
                    for ((h, r), unequal) in lanes.zip(&mut out.unequal) {
                        Value::Float(xs[r]).hash(h);
                        *unequal |= xs[r].is_nan();
                    }
                }
                Column::Values(xs) => {
                    for ((h, r), unequal) in lanes.zip(&mut out.unequal) {
                        xs[r].hash(h);
                        *unequal |= never_equal(&xs[r]);
                    }
                }
            }
        }
    }

    /// Row `i`'s key, read in place.
    #[inline(always)]
    pub(crate) fn key(&self, i: usize) -> TableRow<'_> {
        TableRow { key: self, row: i }
    }
}

/// A key the keyed structures hash, compare and store one value at a
/// time — with [`Value`]'s own `Hash` and `Eq`, whatever holds it.
pub(crate) trait Key: Copy {
    fn width(&self) -> usize;

    /// `f` of the key's `j`-th value — the one reader every key
    /// operation goes through.
    fn with<T>(&self, j: usize, f: impl FnOnce(&Value) -> T) -> T;

    /// Same function as `fxhash::hash_values` over the key's values.
    #[inline(always)]
    fn hash(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(self.width());
        for j in 0..self.width() {
            self.with(j, |v| v.hash(&mut h));
        }
        h.finish()
    }

    /// Text bytes the key's values own beyond their inline slots.
    fn heap_bytes(&self) -> u64 {
        (0..self.width())
            .map(|j| self.with(j, value_heap_bytes))
            .sum()
    }

    #[inline(always)]
    fn matches(&self, stored: &[Value]) -> bool {
        (0..stored.len()).all(|j| self.with(j, |v| stored[j] == *v))
    }
}

/// One row's key, borrowed: columns of the row itself, each in range
/// (checked by [`KeyRef::read`]).
pub(crate) struct KeyRef<'a, R> {
    row: &'a R,
    cols: &'a [usize],
}

impl<R> Clone for KeyRef<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for KeyRef<'_, R> {}

impl<'a, R: Row> KeyRef<'a, R> {
    /// `row`'s key on columns `cols`, read in column order: a column past
    /// the row's arity raises. With `nulls_match` unset (joins) a NULL or
    /// NaN value — `=` is never TRUE on it — is no key: `None` at once,
    /// the columns after it unread.
    #[inline(always)]
    pub(crate) fn read(row: &'a R, cols: &'a [usize], nulls_match: bool) -> Result<Option<Self>> {
        for &c in cols {
            match row.with_cell(c, never_equal) {
                None => return Err(out_of_range(c)),
                Some(true) if !nulls_match => return Ok(None),
                Some(_) => {}
            }
        }
        Ok(Some(KeyRef { row, cols }))
    }
}

impl<R: Row> Key for KeyRef<'_, R> {
    fn width(&self) -> usize {
        self.cols.len()
    }

    #[inline(always)]
    fn with<T>(&self, j: usize, f: impl FnOnce(&Value) -> T) -> T {
        self.row
            .with_cell(self.cols[j], f)
            .expect("key column checked on read")
    }
}

/// Row `row` of a loop input's key columns, read in place: a typed slot
/// by [`Column::with_slot`]. Two words, no variant: a loop keeps it in
/// registers where an enum of key forms went through memory, and its
/// reload stalled.
#[derive(Clone, Copy)]
pub(crate) struct TableRow<'a> {
    key: &'a TableKey,
    row: usize,
}

impl Key for TableRow<'_> {
    fn width(&self) -> usize {
        self.key.0.len()
    }

    #[inline(always)]
    fn with<T>(&self, j: usize, f: impl FnOnce(&Value) -> T) -> T {
        self.key.0[j].with_slot(self.row, f)
    }

    /// [`Key::matches`], an `Int` slot against a stored `Int` compared
    /// as the numbers they are — `Value`'s `Eq` on that pair.
    #[inline(always)]
    fn matches(&self, stored: &[Value]) -> bool {
        self.key
            .0
            .iter()
            .zip(stored)
            .all(|(column, v)| match (&**column, v) {
                (Column::Int(xs), Value::Int(a)) => xs[self.row] == *a,
                (column, v) => column.with_slot(self.row, |x| v == x),
            })
    }
}

/// Distinct `width`-column keys → dense group ids in first-appearance
/// order; the key values sit in one flat arena. Equality is
/// [`Value`]'s: NULL equals NULL, `Int(1)` equals `Float(1.0)`.
pub(crate) struct KeyTable {
    index: FlatIndex,
    width: usize,
    /// Group `g`'s key is `keys[g * width..][..width]`.
    keys: Vec<Value>,
}

impl KeyTable {
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable::with_capacity(width, 0)
    }

    pub(crate) fn with_capacity(width: usize, groups: usize) -> KeyTable {
        KeyTable {
            index: FlatIndex::with_capacity(groups),
            width,
            keys: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The group of `key` (hashing to `hash`), created if new:
    /// `(id, created)`.
    #[inline(always)]
    pub(crate) fn intern(&mut self, hash: u64, key: impl Key) -> (u32, bool) {
        debug_assert_eq!(key.width(), self.width);
        let (width, keys) = (self.width, &self.keys);
        let (g, created) = self
            .index
            .find_or_insert(hash, |g| key.matches(&keys[g as usize * width..][..width]));
        if created {
            self.keys
                .extend((0..width).map(|j| key.with(j, Value::clone)));
        }
        (g, created)
    }

    /// The group of `key`, if any. Every stored key that collides with
    /// it (same slot run, same hash tag) but differs adds one to
    /// `collisions`.
    #[inline(always)]
    pub(crate) fn find(&self, hash: u64, key: impl Key, collisions: &mut u64) -> Option<u32> {
        let (width, keys) = (self.width, &self.keys);
        self.index.find(hash, |g| {
            let hit = key.matches(&keys[g as usize * width..][..width]);
            *collisions += u64::from(!hit);
            hit
        })
    }

    /// All keys, group after group.
    pub(crate) fn into_keys(self) -> Vec<Value> {
        self.keys
    }
}

/// The build side of a hash join: distinct keys, and per key its build
/// rows in build order. Rows are [`JoinTable::insert`]ed in build order,
/// then the table is [`JoinTable::seal`]ed and only probed. A table
/// restricted to the probing side's keys [`JoinTable::admit`]s those
/// first and takes its rows through [`JoinTable::insert_admitted`].
pub(crate) struct JoinTable {
    keys: KeyTable,
    /// Until sealed: `(group, build row)` per inserted row.
    pending: Vec<(u32, u32)>,
    /// Group `g`'s build rows are `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinTable {
    pub(crate) fn with_capacity(width: usize, build_rows: usize) -> JoinTable {
        JoinTable {
            keys: KeyTable::with_capacity(width, build_rows),
            pending: Vec::with_capacity(build_rows),
            starts: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Build rows inserted (rows with a NULL key never are).
    pub(crate) fn len(&self) -> usize {
        self.rows.len() + self.pending.len()
    }

    #[inline(always)]
    pub(crate) fn insert(&mut self, hash: u64, key: impl Key, row: usize) {
        let row = u32::try_from(row).expect("build row ids are 32-bit");
        let (g, _) = self.keys.intern(hash, key);
        self.pending.push((g, row));
    }

    /// Make `key` one that [`Self::insert_admitted`] accepts rows under;
    /// `true` when it is new.
    #[inline(always)]
    pub(crate) fn admit(&mut self, hash: u64, key: impl Key) -> bool {
        self.keys.intern(hash, key).1
    }

    /// [`Self::insert`], unless no such key was admitted: the row is
    /// then dropped — nothing will ever probe for it — and `false`
    /// returned.
    #[inline(always)]
    pub(crate) fn insert_admitted(&mut self, hash: u64, key: impl Key, row: usize) -> bool {
        let row = u32::try_from(row).expect("build row ids are 32-bit");
        let found = self.keys.find(hash, key, &mut 0);
        self.pending.extend(found.map(|g| (g, row)));
        found.is_some()
    }

    /// Spread the keys to at most a quarter load, within
    /// [`SPARSE_SLOTS`]: most lookups of a join find no partner, and
    /// there a miss ends within a slot or two. [`Self::seal`] does it; a
    /// restricted table also once its keys are admitted, before its
    /// rows look them up.
    pub(crate) fn spread(&mut self) {
        self.keys.index.spread(SPARSE_SLOTS);
    }

    /// [Spread](Self::spread) the keys and lay the rows out per key — a
    /// stable counting sort on the group id.
    pub(crate) fn seal(&mut self) {
        self.spread();
        let mut starts = vec![0u32; self.keys.len() + 1];
        for &(g, _) in &self.pending {
            starts[g as usize + 1] += 1;
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; self.pending.len()];
        for (g, row) in std::mem::take(&mut self.pending) {
            let at = &mut next[g as usize];
            rows[*at as usize] = row;
            *at += 1;
        }
        self.starts = starts;
        self.rows = rows;
    }

    /// The build rows whose key equals `key`, in build order.
    #[inline(always)]
    pub(crate) fn matches(&self, hash: u64, key: impl Key, collisions: &mut u64) -> &[u32] {
        debug_assert!(self.pending.is_empty(), "probed before seal()");
        match self.keys.find(hash, key, collisions) {
            Some(g) => {
                let g = g as usize;
                &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
            }
            None => &[],
        }
    }
}

/// The `(group, item)` pairs one DISTINCT aggregate has seen across all
/// groups of its operator.
pub(crate) struct DistinctSet<T> {
    index: FlatIndex,
    groups: Vec<u32>,
    items: Vec<T>,
}

impl<T: Hash + Eq + Clone> DistinctSet<T> {
    /// Room for `items` insertions without a rehash or a reallocation
    /// (none allocates nothing).
    pub(crate) fn with_capacity(items: usize) -> DistinctSet<T> {
        DistinctSet {
            index: FlatIndex::with_capacity(items),
            groups: Vec::with_capacity(items),
            items: Vec::with_capacity(items),
        }
    }

    /// `true` when `group` sees `item` for the first time.
    #[inline]
    pub(crate) fn insert(&mut self, group: u32, item: &T) -> bool {
        let mut h = FxHasher::default();
        h.write_u32(group);
        item.hash(&mut h);
        let (groups, items) = (&self.groups, &self.items);
        let (_, fresh) = self.index.find_or_insert(h.finish(), |e| {
            groups[e as usize] == group && items[e as usize] == *item
        });
        if fresh {
            self.groups.push(group);
            self.items.push(item.clone());
        }
        fresh
    }
}

/// Correlated-subquery memo: `(plan, correlation values)` → result. The
/// caller hashes and compares straight off the outer row, so a hit
/// materializes nothing.
#[derive(Default)]
pub(crate) struct CorrMemo {
    index: FlatIndex,
    entries: Vec<(usize, Tuple, Arc<Relation>)>,
}

impl CorrMemo {
    pub(crate) fn get(
        &self,
        hash: u64,
        plan: usize,
        key_matches: impl Fn(&Tuple) -> bool,
    ) -> Option<&Arc<Relation>> {
        self.index
            .find(hash, |e| {
                let (p, key, _) = &self.entries[e as usize];
                *p == plan && key_matches(key)
            })
            .map(|e| &self.entries[e as usize].2)
    }

    /// Record a result for a key [`Self::get`] just missed.
    pub(crate) fn insert(&mut self, hash: u64, plan: usize, key: Tuple, result: Arc<Relation>) {
        self.index.find_or_insert(hash, |_| false);
        self.entries.push((plan, key, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::Rng;
    use std::collections::HashMap;

    /// A key that is not part of any row: its values.
    #[derive(Clone, Copy)]
    struct Vals<'a>(&'a [Value]);

    impl Key for Vals<'_> {
        fn width(&self) -> usize {
            self.0.len()
        }

        fn with<T>(&self, j: usize, f: impl FnOnce(&Value) -> T) -> T {
            f(&self.0[j])
        }
    }

    fn key_of(vals: &[Value]) -> Vals<'_> {
        Vals(vals)
    }

    /// A random key of `width` values drawn from a small domain that
    /// mixes NULLs, integers, floats equal to integers, other floats and
    /// text — so keys repeat and cross-type equality is exercised.
    fn random_key(rng: &mut Rng, width: usize) -> Vec<Value> {
        (0..width)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => Value::Null,
                1 | 2 => Value::Int(rng.gen_range(0..40i64)),
                3 => Value::Float(rng.gen_range(0..40i64) as f64),
                4 => Value::Float(rng.gen_range(0..40i64) as f64 + 0.5),
                _ => Value::text(format!("k{}", rng.gen_range(0..40u32))),
            })
            .collect()
    }

    fn hash_of(key: &[Value]) -> u64 {
        key_of(key).hash()
    }

    /// Interns `keys` under `hash` and checks every id against a
    /// `HashMap` reference: ids are first-appearance ranks, the key arena
    /// lists the distinct keys in that order, and every key is found
    /// again afterwards.
    fn check_against_reference(width: usize, keys: &[Vec<Value>], hash: impl Fn(&[Value]) -> u64) {
        let mut table = KeyTable::new(width);
        let mut reference: HashMap<Vec<Value>, u32> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for key in keys {
            let next = reference.len() as u32;
            let expected = *reference.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                next
            });
            let (g, created) = table.intern(hash(key), key_of(key));
            assert_eq!((g, created), (expected, expected == next), "key {key:?}");
        }
        assert_eq!(table.len(), order.len());
        for (g, key) in order.iter().enumerate() {
            let found = table.find(hash(key), key_of(key), &mut 0);
            assert_eq!(found, Some(g as u32), "key {key:?}");
        }
        let arena = table.into_keys();
        assert_eq!(arena, order.concat(), "first-appearance order");
    }

    #[test]
    fn key_table_matches_a_hashmap_reference_across_rehashes() {
        let mut rng = Rng::seed_from_u64(0x1DE0);
        for width in [1, 2, 3] {
            // 20 000 draws over a domain of ~200^width keys: thousands of
            // groups, so the slot array doubles a dozen times.
            let keys: Vec<_> = (0..20_000).map(|_| random_key(&mut rng, width)).collect();
            check_against_reference(width, &keys, hash_of);
        }
    }

    #[test]
    fn full_hash_collisions_are_told_apart_by_key() {
        let mut rng = Rng::seed_from_u64(0xC011);
        let keys: Vec<_> = (0..600).map(|_| random_key(&mut rng, 2)).collect();
        // Every key under the same 64-bit hash: one long probe run.
        check_against_reference(2, &keys, |_| 0xDEAD_BEEF_0BAD_F00D);

        let mut table = KeyTable::new(1);
        for i in 0..5 {
            table.intern(7, key_of(&[Value::Int(i)]));
        }
        let mut collisions = 0;
        let hit = table.find(7, key_of(&[Value::Int(3)]), &mut collisions);
        assert_eq!((hit, collisions), (Some(3), 3), "older entries first");
        let miss = table.find(7, key_of(&[Value::Int(9)]), &mut collisions);
        assert_eq!((miss, collisions), (None, 8));
    }

    #[test]
    fn consecutive_integers_do_not_cluster() {
        // The regression the golden-ratio multiply in `home` fixes:
        // FxHash's own top bits put 3000 consecutive integers into 355
        // clusters (probe runs of ~4 at a third load).
        let mut index = FlatIndex::default();
        let hashes: Vec<u64> = (0..3000).map(|i| hash_of(&[Value::Int(i)])).collect();
        for &h in &hashes {
            index.find_or_insert(h, |_| false);
        }
        let mut steps = 0;
        for &h in &hashes {
            index.find(h, |_| {
                steps += 1;
                false
            });
        }
        assert_eq!(steps, 3000, "tags of distinct small integers differ");
        let mask = index.slots.len() - 1;
        let displaced = hashes
            .iter()
            .filter(|&&h| {
                let home = index.home(h);
                !index.slots[home].tagged(h) && !index.slots[(home + 1) & mask].tagged(h)
            })
            .count();
        assert!(
            displaced < 150,
            "{displaced} of 3000 keys sit 2+ slots from home"
        );
    }

    #[test]
    fn null_numeric_and_text_keys() {
        let mut table = KeyTable::new(1);
        let mut group = |v: Value| {
            let key = [v];
            table.intern(hash_of(&key), key_of(&key)).0
        };
        assert_eq!(group(Value::Null), 0);
        assert_eq!(group(Value::Int(1)), 1);
        assert_eq!(group(Value::Float(1.0)), 1, "Int(1) = Float(1.0)");
        assert_eq!(group(Value::Float(1.5)), 2);
        assert_eq!(group(Value::text("1")), 3);
        assert_eq!(group(Value::Null), 0, "NULL keys group together");
        assert_eq!(group(Value::Float(-0.0)), 4);
        assert_eq!(group(Value::Int(0)), 4);
        assert_eq!(group(Value::text("1")), 3);
    }

    #[test]
    fn column_keys_and_value_keys_agree() {
        let row = Tuple::new(vec![Value::Int(4), Value::text("x"), Value::Null]);
        let cols = [2usize, 0, 1];
        let vals = [Value::Null, Value::Float(4.0), Value::text("x")];
        let by_col = KeyRef::read(&row, &cols, true).unwrap().unwrap();
        let by_val = key_of(&vals);
        assert!(KeyRef::read(&row, &cols, false).unwrap().is_none());
        let err = KeyRef::read(&row, &[0, 3], true).err().unwrap();
        assert!(err.to_string().contains("column #3 out of range"), "{err}");
        assert_eq!(by_col.hash(), by_val.hash());
        assert_eq!(by_col.heap_bytes(), 1);
        let mut table = KeyTable::new(3);
        assert_eq!(table.intern(by_col.hash(), by_col), (0, true));
        assert_eq!(table.intern(by_val.hash(), by_val), (0, false));
    }

    /// A float from the corners key equality normalises: zeros of both
    /// signs, NaNs of two payloads, integral and fractional values.
    fn random_float(rng: &mut Rng) -> f64 {
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            4 => rng.gen_range(-9..9i64) as f64,
            _ => rng.gen_range(-9..9i64) as f64 + 0.5,
        }
    }

    /// A base-table column of `rows` slots: typed `Int` or `Float`, or
    /// `Values` mixing NULLs, text, booleans and both numeric types.
    fn random_column(rng: &mut Rng, rows: usize) -> Column {
        let value = |rng: &mut Rng| match rng.gen_range(0..6u32) {
            0 => Value::Null,
            1 => Value::Int(rng.gen_range(-9..9i64)),
            2 => Value::Float(random_float(rng)),
            3 => Value::Bool(rng.gen_bool(0.5)),
            _ => Value::text(format!("t{}", rng.gen_range(0..9u32))),
        };
        match rng.gen_range(0..3u32) {
            0 => Column::Int((0..rows).map(|_| rng.gen_range(-9..9i64)).collect()),
            1 => Column::Float((0..rows).map(|_| random_float(rng)).collect()),
            _ => Column::Values((0..rows).map(|_| value(rng)).collect()),
        }
    }

    /// A value equal to `v` under key equality but stored differently:
    /// `Int(k)` ↔ `Float(k)`, `-0.0` ↔ `0.0`, NaN with the sign flipped.
    fn twin(v: &Value) -> Value {
        match *v {
            Value::Int(k) => Value::Float(k as f64),
            Value::Float(f) if f.is_nan() || f == 0.0 => Value::Float(-f),
            Value::Float(f) if f.fract() == 0.0 => Value::Int(f as i64),
            _ => v.clone(),
        }
    }

    #[test]
    fn a_table_row_key_is_the_key_of_its_values() {
        let mut rng = Rng::seed_from_u64(0x7AB1_EC01);
        let rows = 200;
        for width in 1..=3 {
            for _ in 0..30 {
                let columns: Vec<Arc<Column>> = (0..width)
                    .map(|_| Arc::new(random_column(&mut rng, rows)))
                    .collect();
                let table = TableKey(columns.clone());
                let row =
                    |i| -> Vec<Value> { columns.iter().map(|c| c.get(i).into_owned()).collect() };
                let mut chunk = ChunkHashes::default();
                table.hash_chunk(0..rows, &mut chunk);
                // Stored keys: the twins of the first half's rows, and
                // the rows themselves interned both ways.
                let mut twins = KeyTable::new(width);
                for i in 0..rows / 2 {
                    let key: Vec<Value> = row(i).iter().map(twin).collect();
                    twins.intern(hash_of(&key), key_of(&key));
                }
                let (mut by_row, mut by_vals) = (KeyTable::new(width), KeyTable::new(width));
                for i in 0..rows {
                    let vals = row(i);
                    let val_key = key_of(&vals);
                    let at = format!("{vals:?}");
                    // Joins: a NULL or a NaN anywhere in the key is no key.
                    let unequal = vals.iter().any(never_equal);
                    assert_eq!(chunk.unequal(i), unequal, "{at}");
                    let (hash, key) = (chunk.hash(i), table.key(i));
                    assert_eq!(hash, val_key.hash(), "{at}");
                    assert_eq!(key.heap_bytes(), val_key.heap_bytes(), "{at}");
                    let twin_of: Vec<Value> = vals.iter().map(twin).collect();
                    assert!(key.matches(&twin_of), "{at}");
                    let other = row(rng.gen_range(0..rows));
                    assert_eq!(key.matches(&other), val_key.matches(&other), "{at}");
                    let found = twins.find(hash, key, &mut 0);
                    assert_eq!(found, twins.find(hash, val_key, &mut 0), "{at}");
                    assert!(i >= rows / 2 || found.is_some(), "{at}: its twin is stored");
                    assert_eq!(
                        by_row.intern(hash, key),
                        by_vals.intern(hash, val_key),
                        "{at}"
                    );
                }
                let (got, want) = (by_row.into_keys(), by_vals.into_keys());
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "stored as read");
            }
        }
    }

    /// The corners of the typed hash: a chunk of table rows hashes, lane
    /// by lane, to what the row's values hash to — the extremes of
    /// `i64`, an integral float, both zeros, NaN and the infinities, in
    /// typed columns and beside a `Values` column — and a key read off
    /// an `Int` column meets the equal key read off a `Float` column.
    #[test]
    fn typed_chunk_hashes_are_the_hashes_of_the_values() {
        let ints = [i64::MIN, i64::MAX, 2, 0, -1, 1 << 53];
        let floats = [2.0, -0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let values = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::text("x"),
            Value::Float(-0.0),
            Value::Bool(true),
        ];
        let columns = [
            Column::Int(ints.into()),
            Column::Float(floats.into()),
            Column::Values(values.clone().into()),
        ]
        .map(Arc::new);
        for width in 1..=3 {
            for first in 0..3 {
                let key = TableKey(
                    (0..width)
                        .map(|j| columns[(first + j) % 3].clone())
                        .collect(),
                );
                let mut chunk = ChunkHashes::default();
                key.hash_chunk(0..6, &mut chunk);
                for i in 0..6 {
                    let vals: Vec<Value> = key.0.iter().map(|c| c.get(i).into_owned()).collect();
                    assert_eq!(chunk.hash(i), hash_of(&vals), "{vals:?}");
                    assert_eq!(key.key(i).hash(), hash_of(&vals), "{vals:?}");
                    assert_eq!(chunk.unequal(i), vals.iter().any(never_equal), "{vals:?}");
                    assert!(key.key(i).matches(&vals), "{vals:?}");
                }
                // A lane subset hashes as the same rows do.
                key.hash_chunk([5, 0, 3].into_iter(), &mut chunk);
                let mut all = ChunkHashes::default();
                key.hash_chunk(0..6, &mut all);
                for (k, i) in [5, 0, 3].into_iter().enumerate() {
                    assert_eq!(chunk.hash(k), all.hash(i));
                }
            }
        }
        // `2` and `2.0`, `0` and `-0.0`: one key, whichever column holds it.
        let as_ints = Arc::new(Column::Int([2, 0, 7].into()));
        let as_floats = Arc::new(Column::Float([2.0, -0.0, 7.5].into()));
        let (int_key, float_key) = (TableKey(vec![as_ints]), TableKey(vec![as_floats]));
        let (mut ih, mut fh) = (ChunkHashes::default(), ChunkHashes::default());
        int_key.hash_chunk(0..3, &mut ih);
        float_key.hash_chunk(0..3, &mut fh);
        for (build, build_hashes, probe, probe_hashes) in [
            (&float_key, &fh, &int_key, &ih),
            (&int_key, &ih, &float_key, &fh),
        ] {
            let mut table = JoinTable::with_capacity(1, 3);
            for row in 0..3 {
                table.insert(build_hashes.hash(row), build.key(row), row);
            }
            table.seal();
            let found = |row| table.matches(probe_hashes.hash(row), probe.key(row), &mut 0);
            assert_eq!(
                (found(0), found(1), found(2)),
                (&[0][..], &[1][..], &[][..])
            );
        }
    }

    #[test]
    fn zero_width_keys_are_one_group() {
        let mut table = KeyTable::new(0);
        let empty = key_of(&[]);
        assert_eq!(table.find(empty.hash(), empty, &mut 0), None);
        assert_eq!(table.intern(empty.hash(), empty), (0, true));
        assert_eq!(table.intern(empty.hash(), empty), (0, false));
        assert_eq!(table.len(), 1);
        assert!(table.into_keys().is_empty());

        let mut join = JoinTable::with_capacity(0, 3);
        for row in 0..3 {
            join.insert(empty.hash(), empty, row);
        }
        join.seal();
        assert_eq!(join.matches(empty.hash(), empty, &mut 0), [0, 1, 2]);
    }

    #[test]
    fn join_probes_yield_build_rows_in_build_order() {
        let mut rng = Rng::seed_from_u64(0x7AB1E);
        // ~45 distinct non-NULL keys over 5000 build rows, no capacity
        // hint: long duplicate lists, several rehashes.
        let build: Vec<Vec<Value>> = (0..5000)
            .map(|_| vec![Value::Int(rng.gen_range(0..45i64))])
            .collect();
        let mut table = JoinTable::with_capacity(1, 0);
        let mut reference: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for (row, key) in build.iter().enumerate() {
            table.insert(hash_of(key), key_of(key), row);
            reference.entry(key.clone()).or_default().push(row as u32);
        }
        assert_eq!(table.len(), 5000);
        table.seal();
        assert_eq!(table.len(), 5000);
        let mut collisions = 0;
        for k in 0..50 {
            // A float probe finds the integer build keys.
            let probe = [Value::Float(k as f64)];
            let rows = table.matches(hash_of(&probe), key_of(&probe), &mut collisions);
            let expected = reference.get(&vec![Value::Int(k)]);
            assert_eq!(rows, expected.map_or(&[][..], Vec::as_slice), "key {k}");
        }
        assert_eq!(collisions, 0);

        // Restricted to the even keys, the table answers those the same
        // and holds nothing else.
        let mut restricted = JoinTable::with_capacity(1, 0);
        for k in (0..50).step_by(2).rev() {
            let key = [Value::Float(k as f64)];
            assert!(restricted.admit(hash_of(&key), key_of(&key)));
            assert!(!restricted.admit(hash_of(&key), key_of(&key)));
        }
        let even = |key: &[Value]| matches!(key[0], Value::Int(k) if k % 2 == 0);
        for (row, key) in build.iter().enumerate() {
            let kept = restricted.insert_admitted(hash_of(key), key_of(key), row);
            assert_eq!(kept, even(key), "row {row}");
        }
        restricted.seal();
        let even_rows = build.iter().filter(|key| even(key)).count();
        assert_eq!(restricted.len(), even_rows);
        for k in 0..50 {
            let probe = [Value::Int(k)];
            let rows = restricted.matches(hash_of(&probe), key_of(&probe), &mut 0);
            let full = table.matches(hash_of(&probe), key_of(&probe), &mut 0);
            assert_eq!(rows, if k % 2 == 0 { full } else { &[] }, "key {k}");
        }
    }

    #[test]
    fn distinct_set_is_keyed_on_group_and_item() {
        let mut rng = Rng::seed_from_u64(0xD157);
        let mut set: DistinctSet<Value> = DistinctSet::with_capacity(0);
        let mut reference = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let group = rng.gen_range(0..7u32);
            let item = random_key(&mut rng, 1).pop().unwrap();
            assert_eq!(
                set.insert(group, &item),
                reference.insert((group, item.clone())),
                "({group}, {item:?})"
            );
        }
        assert!(set.insert(7, &Value::Int(1)), "a fresh group");
        assert!(!set.insert(7, &Value::Float(1.0)));
    }

    #[test]
    fn an_empty_index_owns_no_memory() {
        let index = FlatIndex::default();
        assert_eq!(index.slots.capacity() + index.hashes.capacity(), 0);
        assert_eq!(index.find(1, |_| true), None);
        assert_eq!(FlatIndex::with_capacity(6).slots.len(), 8, "6 is ¾ of 8");
        assert_eq!(FlatIndex::with_capacity(7).slots.len(), 16);
    }
}
