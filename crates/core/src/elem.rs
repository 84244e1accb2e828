//! Element types storable in PPM shared variables.

use ppm_simnet::WireSize;

/// A value that can live in a PPM shared array.
///
/// Elements are plain copyable data: they cross node boundaries inside read
/// responses and write bundles, and arrays are allocated zero-initialized
/// (via `Default`), matching the paper's C-style shared arrays. `Sync` is
/// for the VP bodies, not the runtime: `ppm_do` takes `Send` futures, and a
/// body generic over `T` that holds a `&T` — a value read, or a slice
/// element — across an `.await` is `Send` only if `T` is `Sync`.
/// [`ByteHash`] feeds the conformance checker's value fingerprints.
pub trait Elem:
    Copy + Send + Sync + Default + WireSize + ByteHash + std::fmt::Debug + 'static
{
}

impl<T> Elem for T where
    T: Copy + Send + Sync + Default + WireSize + ByteHash + std::fmt::Debug + 'static
{
}

/// Streaming FNV-1a accumulator for element fingerprints.
///
/// The conformance checker distinguishes conflicting from idempotent
/// concurrent writes by fingerprint (`Elem` has no `PartialEq` bound). The
/// fingerprint used to hash the `Debug` rendering, which allocated a format
/// string per recorded write *and* collapsed values with identical
/// renderings — every `f64` NaN payload prints `NaN`, so distinct-NaN
/// conflicts went unseen. Hashing the value's identity bytes fixes both.
#[derive(Debug, Clone, Copy)]
pub struct ByteHasher {
    state: u64,
}

impl ByteHasher {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh accumulator at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        ByteHasher {
            state: Self::FNV_OFFSET,
        }
    }

    /// Absorb `bytes` into the running hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// The accumulated hash.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for ByteHasher {
    fn default() -> Self {
        ByteHasher::new()
    }
}

/// Byte-level identity hash of an element value.
///
/// Implementations must feed a byte sequence that distinguishes any two
/// values a program could tell apart: floats hash their IEEE bit patterns
/// (`to_bits`), so distinct NaN payloads and `0.0` vs `-0.0` fingerprint
/// differently; integers hash their little-endian bytes. Composite
/// elements hash their fields in order. Do **not** hash raw struct memory —
/// padding bytes are undefined; hash field by field (see the app element
/// types for examples).
pub trait ByteHash {
    /// Feed this value's identity bytes to the hasher.
    fn hash_bytes(&self, h: &mut ByteHasher);
}

macro_rules! int_byte_hash {
    ($($t:ty),* $(,)?) => {
        $(impl ByteHash for $t {
            #[inline]
            fn hash_bytes(&self, h: &mut ByteHasher) {
                h.write(&self.to_le_bytes());
            }
        })*
    };
}

int_byte_hash!(u8, i8, u16, i16, u32, i32, u64, i64, u128, i128, usize, isize);

impl ByteHash for f32 {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        h.write(&self.to_bits().to_le_bytes());
    }
}

impl ByteHash for f64 {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        h.write(&self.to_bits().to_le_bytes());
    }
}

impl ByteHash for bool {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        h.write(&[*self as u8]);
    }
}

impl ByteHash for () {
    #[inline]
    fn hash_bytes(&self, _h: &mut ByteHasher) {}
}

impl ByteHash for char {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        h.write(&(*self as u32).to_le_bytes());
    }
}

macro_rules! tuple_byte_hash {
    ($($name:ident)+) => {
        impl<$($name: ByteHash),+> ByteHash for ($($name,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn hash_bytes(&self, h: &mut ByteHasher) {
                let ($($name,)+) = self;
                $($name.hash_bytes(h);)+
            }
        }
    };
}

tuple_byte_hash!(A);
tuple_byte_hash!(A B);
tuple_byte_hash!(A B C);
tuple_byte_hash!(A B C D);

impl<T: ByteHash, const N: usize> ByteHash for [T; N] {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        for v in self {
            v.hash_bytes(h);
        }
    }
}

impl<T: ByteHash> ByteHash for Option<T> {
    #[inline]
    fn hash_bytes(&self, h: &mut ByteHasher) {
        match self {
            // Tag byte keeps None distinct from Some(default).
            None => h.write(&[0]),
            Some(v) => {
                h.write(&[1]);
                v.hash_bytes(h);
            }
        }
    }
}

/// Combining operators for `accumulate` writes.
///
/// Accumulating writes from many VPs to the same element are merged by the
/// runtime at the owner, so e.g. a global sum costs one bundle entry per
/// node. All operators are associative and commutative; the runtime
/// nevertheless applies them in a canonical deterministic order (ascending
/// contributing-VP rank; see `state.rs`) so floating-point results are
/// bit-reproducible, whatever the data distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumOp {
    /// Addition.
    Add,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Elements that support combining writes.
pub trait AccumElem: Elem + PartialOrd + std::ops::Add<Output = Self> {
    /// Apply `op` to combine two values.
    #[inline]
    fn combine(op: AccumOp, a: Self, b: Self) -> Self {
        match op {
            AccumOp::Add => a + b,
            AccumOp::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
            AccumOp::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
        }
    }
}

impl AccumElem for f64 {}
impl AccumElem for f32 {}
impl AccumElem for u64 {}
impl AccumElem for i64 {}
impl AccumElem for u32 {}
impl AccumElem for i32 {}
impl AccumElem for usize {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_ops() {
        assert_eq!(f64::combine(AccumOp::Add, 1.5, 2.0), 3.5);
        assert_eq!(u64::combine(AccumOp::Min, 7, 3), 3);
        assert_eq!(i64::combine(AccumOp::Max, -2, -9), -2);
        assert_eq!(
            f64::combine(AccumOp::Min, f64::NAN, 1.0).to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn tuples_are_elems() {
        fn takes_elem<T: Elem>(_: T) {}
        takes_elem((1.0f64, 2u64));
        takes_elem([0.0f64; 4]);
    }

    fn fp<T: ByteHash>(v: &T) -> u64 {
        let mut h = ByteHasher::new();
        v.hash_bytes(&mut h);
        h.finish()
    }

    #[test]
    fn byte_hash_distinguishes_bit_patterns() {
        assert_eq!(fp(&1.5f64), fp(&1.5f64));
        assert_ne!(fp(&1.5f64), fp(&2.5f64));
        assert_ne!(fp(&0.0f64), fp(&-0.0f64), "signed zeros differ in bits");
        assert_ne!(fp(&(1u64, 2u64)), fp(&(2u64, 1u64)));
        assert_ne!(fp(&[1.0f64, 0.0]), fp(&[0.0f64, 1.0]));
        assert_ne!(fp(&Some(0u64)), fp(&None::<u64>));
    }

    /// The collision class the Debug-rendering fingerprint had: every f64
    /// NaN renders as "NaN", so distinct payloads hashed identically and
    /// the write-write conflict checker could miss a real conflict.
    #[test]
    fn byte_hash_distinguishes_nan_payloads() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(quiet.is_nan() && payload.is_nan());
        assert_eq!(format!("{quiet:?}"), format!("{payload:?}"));
        assert_ne!(fp(&quiet), fp(&payload));
        assert_ne!(fp(&f32::NAN), fp(&f32::from_bits(f32::NAN.to_bits() ^ 1)));
    }
}
