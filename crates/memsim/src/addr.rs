//! Address newtypes shared by every layer of the simulator.
//!
//! Physical and virtual addresses are both 64-bit quantities on RV64, but
//! confusing them is one of the easiest ways to corrupt a simulated walk, so
//! they are distinct types ([`PhysAddr`] and [`VirtAddr`]).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a base page in bytes (RISC-V 4 KiB).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

macro_rules! addr_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the 4 KiB page number containing this address.
            #[inline]
            pub const fn page_number(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// Returns the byte offset within the 4 KiB page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Returns the address rounded down to its page base.
            #[inline]
            pub const fn page_base(self) -> Self {
                Self(self.0 & !(PAGE_SIZE - 1))
            }

            /// Returns the cache-line number containing this address.
            #[inline]
            pub const fn line_number(self) -> u64 {
                self.0 >> LINE_SHIFT
            }

            /// Returns the address rounded down to its cache-line base.
            #[inline]
            pub const fn line_base(self) -> Self {
                Self(self.0 & !(LINE_SIZE - 1))
            }

            /// True if the address is aligned to `align` bytes
            /// (`align` must be a power of two).
            #[inline]
            pub const fn is_aligned(self, align: u64) -> bool {
                debug_assert!(align.is_power_of_two());
                self.0 & (align - 1) == 0
            }

            /// Returns the address rounded down to a multiple of `align`
            /// (`align` must be a power of two).
            #[inline]
            pub const fn align_down(self, align: u64) -> Self {
                debug_assert!(align.is_power_of_two());
                Self(self.0 & !(align - 1))
            }

            /// Returns the address rounded up to a multiple of `align`
            /// (`align` must be a power of two).
            #[inline]
            pub const fn align_up(self, align: u64) -> Self {
                debug_assert!(align.is_power_of_two());
                Self((self.0 + align - 1) & !(align - 1))
            }

            /// Offset of this address from `base`, in bytes.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `self < base`.
            #[inline]
            pub fn offset_from(self, base: Self) -> u64 {
                debug_assert!(self.0 >= base.0, "offset_from underflow");
                self.0 - base.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $name {
            type Output = Self;
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }
    };
}

addr_type! {
    /// A physical address.
    ///
    /// ```
    /// use hpmp_memsim::PhysAddr;
    /// let pa = PhysAddr::new(0x8000_1234);
    /// assert_eq!(pa.page_number(), 0x8_0001);
    /// assert_eq!(pa.page_offset(), 0x234);
    /// ```
    PhysAddr
}

addr_type! {
    /// A virtual address.
    ///
    /// ```
    /// use hpmp_memsim::VirtAddr;
    /// let va = VirtAddr::new(0x0000_003f_ffff_f000);
    /// assert!(va.is_aligned(4096));
    /// ```
    VirtAddr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let pa = PhysAddr::new(0x8000_1fff);
        assert_eq!(pa.page_number(), 0x8_0001);
        assert_eq!(pa.page_offset(), 0xfff);
        assert_eq!(pa.page_base(), PhysAddr::new(0x8000_1000));
    }

    #[test]
    fn line_arithmetic() {
        let pa = PhysAddr::new(0x1043);
        assert_eq!(pa.line_number(), 0x41);
        assert_eq!(pa.line_base(), PhysAddr::new(0x1040));
    }

    #[test]
    fn alignment() {
        let pa = PhysAddr::new(0x12345);
        assert!(!pa.is_aligned(0x1000));
        assert_eq!(pa.align_down(0x1000), PhysAddr::new(0x12000));
        assert_eq!(pa.align_up(0x1000), PhysAddr::new(0x13000));
        assert_eq!(
            PhysAddr::new(0x12000).align_up(0x1000),
            PhysAddr::new(0x12000)
        );
    }

    #[test]
    fn arithmetic_ops() {
        let mut pa = PhysAddr::new(0x1000);
        pa += 0x10;
        assert_eq!((pa + 0x10).raw(), 0x1020);
        assert_eq!((pa - 0x10).raw(), 0x1000);
        assert_eq!(pa.offset_from(PhysAddr::new(0x1000)), 0x10);
    }

    #[test]
    fn display_and_debug() {
        let pa = PhysAddr::new(0xdead);
        assert_eq!(format!("{pa}"), "0xdead");
        assert_eq!(format!("{pa:?}"), "PhysAddr(0xdead)");
        assert_eq!(format!("{pa:x}"), "dead");
    }
}
