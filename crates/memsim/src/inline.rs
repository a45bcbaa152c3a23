//! A fixed-capacity list stored inline.
//!
//! Every list a page walk produces has a small structural bound: a radix
//! walk reads at most one PTE per level, a PMP Table walk at most one
//! pmpte per table level, and a nested walk a fixed number of references
//! per guest level. [`InlineVec`] holds such a list in a `[T; N]` beside
//! its length, so producing one never touches the heap. Reads go through
//! `&[T]`, exactly as they would for a `Vec`.

use std::ops::Deref;

/// Up to `N` values of `T`, stored inline; dereferences to `&[T]`.
///
/// Pushing past `N` panics: the capacity of every use is the structural
/// bound of the walk that fills it, so an overflow is a bug, never input.
///
/// ```
/// use hpmp_memsim::InlineVec;
///
/// let mut refs: InlineVec<u64, 3> = InlineVec::new();
/// refs.push(7);
/// refs.push(9);
/// assert_eq!(refs.len(), 2);
/// assert_eq!(refs[1], 9);
/// assert_eq!(&*refs, &[7, 9]);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The capacity, `N`.
    pub const CAPACITY: usize = N;

    /// An empty list.
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` items; the list is then left
    /// unchanged.
    pub fn push(&mut self, item: T) {
        assert!(
            self.len < N,
            "InlineVec capacity {N} exceeded: the bound of this walk is wrong"
        );
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_and_reads_as_a_slice() {
        let mut list: InlineVec<u32, 3> = InlineVec::new();
        assert!(list.is_empty());
        for v in [4, 5, 6] {
            list.push(v);
        }
        assert_eq!(list.len(), InlineVec::<u32, 3>::CAPACITY);
        assert_eq!(&*list, &[4, 5, 6]);
        assert_eq!(list.iter().sum::<u32>(), 15);
        assert_eq!(format!("{list:?}"), "[4, 5, 6]");
    }

    #[test]
    fn push_past_capacity_panics_without_writing() {
        let mut list: InlineVec<u32, 2> = InlineVec::new();
        list.push(1);
        list.push(2);
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| list.push(3)));
        assert!(overflow.is_err(), "a third push into capacity 2 must panic");
        // The panic fired before any write: the list is as it was.
        assert_eq!(&*list, &[1, 2]);
    }
}
