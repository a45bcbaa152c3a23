//! A fully-associative store with exact LRU replacement.
//!
//! The L1 TLB, the page-walk cache and the PMPTW-Cache are all small
//! fully-associative caches that evict their least recently used entry.
//! [`LruMap`] is that structure once. A hashed tag index finds an entry
//! and an intrusive recency list names the victim, so find, touch, insert
//! and evict all cost O(1) host time whatever the capacity.

/// Link value meaning "no slot".
const NIL: u16 = u16::MAX;
/// Bucket heads in the tag index: twice the 32-entry L1 TLB, so a probe
/// meets about one tag. A power of two, and small enough that a bucket
/// number fits the slot's `u8`.
const BUCKETS: usize = 64;
const _: () = assert!(BUCKETS.is_power_of_two() && BUCKETS <= 256);

/// The largest capacity an [`LruMap`] accepts: its slots are linked by
/// 16-bit indices, one value of which means "no slot".
pub const LRU_MAX_ENTRIES: usize = NIL as usize - 1;

/// An entry an [`LruMap`] can hold. The entry carries its own key; an
/// insert replaces the live entry with an equal key.
pub trait LruEntry: Copy {
    /// What names an entry.
    type Key: Copy + Eq;

    /// This entry's key.
    fn key(&self) -> Self::Key;

    /// Folds `key` into 64 bits for the tag index. Distinct keys with equal
    /// mixes share a hash chain, which costs time but never correctness.
    fn mix(key: Self::Key) -> u64;
}

/// One slot with its links. A slot is on exactly one of two lists: the
/// recency list and its hash bucket's chain while live, the free list
/// (through `next`) once removed.
#[derive(Clone, Copy, Debug)]
struct Slot<E> {
    entry: E,
    /// Next slot in the same hash bucket.
    chain: u16,
    /// More recently used neighbour.
    prev: u16,
    /// Less recently used neighbour (next free slot while free).
    next: u16,
    /// The hash bucket of `entry`'s key.
    bucket: u8,
}

/// Up to `capacity` entries, fully associative, evicting the least
/// recently used.
///
/// Slots live in one `Vec` allocated once at capacity. The recency list
/// runs from the most recently used slot at its head to the victim at its
/// tail. Every touch moves a slot to the head, so the tail is always the
/// entry a scan for the oldest touch would pick; a removal unlinks one
/// slot and leaves the order of the rest as it was. A zero-capacity store
/// holds nothing: every insert is dropped.
///
/// ```
/// use hpmp_memsim::{LruEntry, LruMap};
///
/// #[derive(Clone, Copy)]
/// struct Line(u64);
/// impl LruEntry for Line {
///     type Key = u64;
///     fn key(&self) -> u64 { self.0 }
///     fn mix(key: u64) -> u64 { key }
/// }
///
/// let mut map = LruMap::new(2);
/// map.insert(Line(1));
/// map.insert(Line(2));
/// let (one, _) = map.find(1).unwrap();
/// map.touch(one);
/// map.insert(Line(3)); // evicts 2, the least recently used
/// assert!(map.find(2).is_none());
/// assert_eq!(map.iter().map(|l| l.0).collect::<Vec<_>>(), [3, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct LruMap<E> {
    capacity: usize,
    slots: Vec<Slot<E>>,
    buckets: [u16; BUCKETS],
    head: u16,
    tail: u16,
    free: u16,
}

impl<E: LruEntry> LruMap<E> {
    /// An empty store of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`LRU_MAX_ENTRIES`].
    pub fn new(capacity: usize) -> LruMap<E> {
        assert!(
            capacity <= LRU_MAX_ENTRIES,
            "an LruMap holds at most {LRU_MAX_ENTRIES} entries, not {capacity}"
        );
        LruMap {
            capacity,
            slots: Vec::with_capacity(capacity),
            buckets: [NIL; BUCKETS],
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// The live slot holding `key`, and a copy of its entry. The slot
    /// number stays valid until the next insert, removal or clear.
    pub fn find(&self, key: E::Key) -> Option<(usize, E)> {
        let i = self.find_in(Self::bucket(key), key)?;
        Some((i, self.slots[i].entry))
    }

    /// Makes live slot `i` the most recently used. Every hit takes this
    /// path, so it skips the `NIL` cases a slot behind the head never has.
    pub fn touch(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        if prev == NIL {
            return; // already the head
        }
        self.slots[prev as usize].next = next;
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        let head = self.head;
        self.slots[head as usize].prev = i as u16;
        self.slots[i].prev = NIL;
        self.slots[i].next = head;
        self.head = i as u16;
    }

    /// Installs `entry` as the most recently used: in place of the live
    /// entry with its key if there is one, else in a free slot, else in
    /// place of the least recently used.
    pub fn insert(&mut self, entry: E) {
        if self.capacity == 0 {
            return;
        }
        let bucket = Self::bucket(entry.key());
        if let Some(i) = self.find_in(bucket, entry.key()) {
            self.slots[i].entry = entry;
            self.touch(i);
            return;
        }
        let i = if self.free != NIL {
            let i = self.free as usize;
            self.free = self.slots[i].next;
            i
        } else if self.slots.len() < self.capacity {
            self.slots.len()
        } else {
            let victim = self.tail as usize;
            self.unchain(victim);
            self.unlink(victim);
            victim
        };
        let slot = Slot {
            entry,
            chain: self.buckets[bucket],
            prev: NIL,
            next: self.head,
            bucket: bucket as u8,
        };
        if i == self.slots.len() {
            self.slots.push(slot);
        } else {
            self.slots[i] = slot;
        }
        self.buckets[bucket] = i as u16;
        match self.head {
            NIL => self.tail = i as u16,
            h => self.slots[h as usize].prev = i as u16,
        }
        self.head = i as u16;
    }

    /// Removes live slot `i`, keeping the recency order of the rest.
    pub fn remove(&mut self, i: usize) {
        self.unchain(i);
        self.unlink(i);
        self.slots[i].next = self.free;
        self.free = i as u16;
    }

    /// Removes every entry that fails `keep`, in O(live entries).
    pub fn retain(&mut self, keep: impl Fn(&E) -> bool) {
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i as usize].next;
            if !keep(&self.slots[i as usize].entry) {
                self.remove(i as usize);
            }
            i = next;
        }
    }

    /// Empties the store in O(slots in use): only the buckets those slots
    /// hashed to are reset, never the whole index. An empty store returns
    /// at once, so a fence that finds a cache empty costs one branch.
    pub fn clear(&mut self) {
        if self.slots.is_empty() {
            return;
        }
        for slot in &self.slots {
            self.buckets[slot.bucket as usize] = NIL;
        }
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// The live entries, most recently used first: the last is the next
    /// victim once the store is full.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let mut i = self.head;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let slot = &self.slots[i as usize];
            i = slot.next;
            Some(&slot.entry)
        })
    }

    /// Multiplicative (Fibonacci) hash of the key's mix onto a bucket.
    fn bucket(key: E::Key) -> usize {
        let hash = E::mix(key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> (64 - BUCKETS.trailing_zeros())) as usize
    }

    /// The live slot holding `key`, which hashes to `bucket`.
    fn find_in(&self, bucket: usize, key: E::Key) -> Option<usize> {
        let mut i = self.buckets[bucket];
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.entry.key() == key {
                return Some(i as usize);
            }
            i = slot.chain;
        }
        None
    }

    /// Takes live slot `i` out of its bucket's chain.
    fn unchain(&mut self, i: usize) {
        let Slot { chain, bucket, .. } = self.slots[i];
        let mut j = self.buckets[bucket as usize];
        if j as usize == i {
            self.buckets[bucket as usize] = chain;
            return;
        }
        while self.slots[j as usize].chain as usize != i {
            j = self.slots[j as usize].chain;
        }
        self.slots[j as usize].chain = chain;
    }

    /// Takes live slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }
}
