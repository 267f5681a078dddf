//! 128-bit blocks: wire labels, garbled-table rows, and AES states.
//!
//! Every GC object the paper counts bytes for — wire labels (16 B) and
//! garbled tables (2 × 16 B per AND) — is a [`Block`].

use std::fmt;

use rand::Rng;

/// A 128-bit value: a wire label, a table row, or an AES block.
///
/// XOR is the workhorse operation (FreeXOR lives on it).
///
/// # Examples
///
/// ```
/// use haac_gc::Block;
/// let a = Block::from(0x1234u128);
/// let b = Block::from(0x00FFu128);
/// assert_eq!((a ^ b) ^ b, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)] // layout = u128: the AES backends load/store it directly
pub struct Block(u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);

    /// Creates a block from raw bytes (little-endian).
    #[inline]
    pub fn from_bytes(bytes: [u8; 16]) -> Block {
        Block(u128::from_le_bytes(bytes))
    }

    /// Returns the raw bytes (little-endian).
    #[inline]
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// The least-significant bit — the *permute bit* in point-and-permute
    /// garbling.
    #[inline]
    pub fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Samples a uniformly random block.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Block {
        Block(rng.gen())
    }

    /// Returns `self` if `cond` is true, otherwise zero.
    ///
    /// The branch-free select used throughout half-gate garbling
    /// (`cond·X` in the paper's notation).
    #[inline]
    pub fn select(self, cond: bool) -> Block {
        // Branch-free: mask with 0 or all-ones.
        Block(self.0 & (0u128.wrapping_sub(cond as u128)))
    }
}

impl From<u128> for Block {
    fn from(v: u128) -> Block {
        Block(v)
    }
}

impl From<Block> for u128 {
    fn from(b: Block) -> u128 {
        b.0
    }
}

impl std::ops::BitXor for Block {
    type Output = Block;
    #[inline]
    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl std::ops::BitXorAssign for Block {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Wire size of one garbled table: two 16-byte little-endian rows.
pub const TABLE_BYTES: usize = 32;

/// Appends the wire encoding of `tables` (each row
/// [`Block::to_bytes`], in order) to `out` — on little-endian targets one
/// bulk copy, because there a table's memory *is* its wire encoding.
pub fn tables_to_wire(tables: &[[Block; 2]], out: &mut Vec<u8>) {
    #[cfg(target_endian = "little")]
    out.extend_from_slice(table_bytes(tables));
    #[cfg(target_endian = "big")]
    tables_to_wire_by_block(tables, out);
}

/// Overwrites `tables` with the tables whose wire encoding `fill`
/// writes into the `TABLE_BYTES × tables.len()`-byte buffer it is
/// handed. On little-endian targets that buffer is `tables` itself, so
/// a transport can receive straight into the label type; when `fill`
/// fails, `tables` holds unspecified (but valid) blocks.
///
/// # Errors
///
/// Propagates `fill`'s error.
pub fn tables_from_wire<E>(
    tables: &mut [[Block; 2]],
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    #[cfg(target_endian = "little")]
    return fill(table_bytes_mut(tables));
    #[cfg(target_endian = "big")]
    return tables_from_wire_by_block(tables, fill);
}

/// The bytes of `tables` in memory order — their wire encoding on a
/// little-endian target, which is all this is compiled for.
#[cfg(target_endian = "little")]
fn table_bytes(tables: &[[Block; 2]]) -> &[u8] {
    // SAFETY: `Block` is `#[repr(transparent)]` over `u128`, so
    // `[[Block; 2]]` is `size_of_val(tables)` contiguous, initialised
    // bytes without padding; `u8` has alignment 1 and the returned slice
    // borrows `tables` for its whole lifetime.
    unsafe { std::slice::from_raw_parts(tables.as_ptr().cast(), std::mem::size_of_val(tables)) }
}

/// [`table_bytes`], mutably.
#[cfg(target_endian = "little")]
fn table_bytes_mut(tables: &mut [[Block; 2]]) -> &mut [u8] {
    // SAFETY: as in `table_bytes`; additionally every bit pattern is a
    // valid `u128`, so no write through the view can break `Block`, and
    // the exclusive borrow of `tables` makes the view unique.
    unsafe {
        std::slice::from_raw_parts_mut(tables.as_mut_ptr().cast(), std::mem::size_of_val(tables))
    }
}

/// [`tables_to_wire`] one block at a time: the big-endian
/// implementation, and the oracle the byte view is tested against.
#[cfg(any(test, target_endian = "big"))]
fn tables_to_wire_by_block(tables: &[[Block; 2]], out: &mut Vec<u8>) {
    for table in tables {
        out.extend_from_slice(&table[0].to_bytes());
        out.extend_from_slice(&table[1].to_bytes());
    }
}

/// [`tables_from_wire`] one block at a time, through a scratch buffer:
/// the big-endian implementation, and the byte view's test oracle.
#[cfg(any(test, target_endian = "big"))]
fn tables_from_wire_by_block<E>(
    tables: &mut [[Block; 2]],
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut bytes = vec![0u8; TABLE_BYTES * tables.len()];
    fill(&mut bytes)?;
    for (table, raw) in tables.iter_mut().zip(bytes.chunks_exact(TABLE_BYTES)) {
        let (row0, row1) = raw.split_at(16);
        *table = [
            Block::from_bytes(row0.try_into().expect("16 bytes")),
            Block::from_bytes(row1.try_into().expect("16 bytes")),
        ];
    }
    Ok(())
}

/// The garbler's global FreeXOR offset Δ (`R` in the paper), with its
/// least-significant bit forced to 1 so permute bits of a label pair
/// always differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta(Block);

impl Delta {
    /// Samples a fresh Δ (lsb forced to 1).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Delta {
        Delta(Block(u128::from(Block::random(rng)) | 1))
    }

    /// Builds a Δ from a block, forcing the lsb to 1.
    pub fn from_block(block: Block) -> Delta {
        Delta(Block(u128::from(block) | 1))
    }

    /// The underlying block.
    #[inline]
    pub fn block(self) -> Block {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn xor_and_lsb() {
        let a = Block::from(0b1010u128);
        let b = Block::from(0b0110u128);
        assert_eq!(u128::from(a ^ b), 0b1100);
        assert!(!a.lsb());
        assert!(Block::from(1u128).lsb());
    }

    #[test]
    fn select_is_branch_free_mask() {
        let a = Block::from(0xDEAD_BEEFu128);
        assert_eq!(a.select(true), a);
        assert_eq!(a.select(false), Block::ZERO);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let b = Block::random(&mut rng);
            assert_eq!(Block::from_bytes(b.to_bytes()), b);
        }
    }

    fn random_tables(rng: &mut StdRng, n: usize) -> Vec<[Block; 2]> {
        (0..n).map(|_| [Block::random(rng), Block::random(rng)]).collect()
    }

    #[test]
    fn table_byte_view_matches_the_per_block_loop() {
        let mut rng = StdRng::seed_from_u64(22);
        for n in [0usize, 1, 2, 7, 64, 2048] {
            let tables = random_tables(&mut rng, n);
            // A non-empty prefix: the encoders append.
            let (mut bulk, mut by_block) = (vec![0xAA], vec![0xAA]);
            tables_to_wire(&tables, &mut bulk);
            tables_to_wire_by_block(&tables, &mut by_block);
            assert_eq!(bulk, by_block, "{n} tables");
            assert_eq!(bulk.len(), 1 + TABLE_BYTES * n);

            let wire = &bulk[1..];
            let fill = |buf: &mut [u8]| -> Result<(), ()> {
                buf.copy_from_slice(wire);
                Ok(())
            };
            // Stale contents must be overwritten, not merged.
            let mut decoded = random_tables(&mut rng, n);
            let mut oracle = decoded.clone();
            tables_from_wire(&mut decoded, fill).unwrap();
            tables_from_wire_by_block(&mut oracle, fill).unwrap();
            assert_eq!(decoded, tables, "{n} tables");
            assert_eq!(oracle, tables, "{n} tables");
        }
    }

    #[test]
    fn tables_from_wire_propagates_the_fill_error() {
        let mut tables = vec![[Block::ZERO; 2]; 3];
        let err = tables_from_wire(&mut tables, |buf| Err(buf.len())).unwrap_err();
        assert_eq!(err, 3 * TABLE_BYTES);
    }

    #[test]
    fn delta_lsb_is_always_one() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert!(Delta::random(&mut rng).block().lsb());
        }
        assert!(Delta::from_block(Block::ZERO).block().lsb());
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let s = format!("{}", Block::from(0xABu128));
        assert_eq!(s.len(), 32);
        assert!(s.ends_with("ab"));
    }
}
