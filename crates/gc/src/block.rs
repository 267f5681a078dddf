//! 128-bit blocks: wire labels, garbled-table rows, and AES states.
//!
//! Every GC object the paper counts bytes for — wire labels (16 B) and
//! garbled tables (2 × 16 B per AND) — is a [`Block`].

use std::borrow::Cow;
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
    blocks_to_wire(tables.as_flattened(), out);
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
    blocks_from_wire(tables.as_flattened_mut(), fill)
}

/// Appends the wire encoding of `blocks` (each [`Block::to_bytes`], in
/// order) to `out`, reserving the room once — on little-endian targets
/// one bulk copy of their memory.
pub fn blocks_to_wire(blocks: &[Block], out: &mut Vec<u8>) {
    out.extend_from_slice(&wire_view(blocks));
}

/// [`tables_from_wire`] for a run of single blocks: `fill` writes the
/// `16 × blocks.len()`-byte wire encoding, which on little-endian
/// targets lands in `blocks` directly.
///
/// # Errors
///
/// Propagates `fill`'s error.
pub fn blocks_from_wire<E>(
    blocks: &mut [Block],
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    #[cfg(target_endian = "little")]
    return fill(block_bytes_mut(blocks));
    #[cfg(target_endian = "big")]
    return blocks_from_wire_by_block(blocks, fill);
}

/// The wire encoding of `blocks`: on little-endian targets their own
/// memory, borrowed — so a transport can write a chunk of tables
/// (`tables.as_flattened()`) without copying it first.
pub fn wire_view(blocks: &[Block]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    return Cow::Borrowed(block_bytes(blocks));
    #[cfg(target_endian = "big")]
    return Cow::Owned(blocks_to_wire_by_block(blocks));
}

/// The bytes of `blocks` in memory order — their wire encoding on a
/// little-endian target, which is all this is compiled for.
#[cfg(target_endian = "little")]
fn block_bytes(blocks: &[Block]) -> &[u8] {
    // SAFETY: `Block` is `#[repr(transparent)]` over `u128`, so
    // `[Block]` is `size_of_val(blocks)` contiguous, initialised bytes
    // without padding; `u8` has alignment 1 and the returned slice
    // borrows `blocks` for its whole lifetime.
    unsafe { std::slice::from_raw_parts(blocks.as_ptr().cast(), std::mem::size_of_val(blocks)) }
}

/// [`block_bytes`], mutably.
#[cfg(target_endian = "little")]
fn block_bytes_mut(blocks: &mut [Block]) -> &mut [u8] {
    // SAFETY: as in `block_bytes`; additionally every bit pattern is a
    // valid `u128`, so no write through the view can break `Block`, and
    // the exclusive borrow of `blocks` makes the view unique.
    unsafe {
        std::slice::from_raw_parts_mut(blocks.as_mut_ptr().cast(), std::mem::size_of_val(blocks))
    }
}

/// [`wire_view`] one block at a time: the big-endian implementation,
/// and the oracle the byte view is tested against.
#[cfg(any(test, target_endian = "big"))]
fn blocks_to_wire_by_block(blocks: &[Block]) -> Vec<u8> {
    blocks.iter().flat_map(|block| block.to_bytes()).collect()
}

/// [`blocks_from_wire`] one block at a time, through a scratch buffer:
/// the big-endian implementation, and the byte view's test oracle.
#[cfg(any(test, target_endian = "big"))]
fn blocks_from_wire_by_block<E>(
    blocks: &mut [Block],
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut bytes = vec![0u8; 16 * blocks.len()];
    fill(&mut bytes)?;
    for (block, raw) in blocks.iter_mut().zip(bytes.chunks_exact(16)) {
        *block = Block::from_bytes(raw.try_into().expect("16 bytes"));
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
            by_block.extend(blocks_to_wire_by_block(tables.as_flattened()));
            assert_eq!(bulk, by_block, "{n} tables");
            assert_eq!(bulk.len(), 1 + TABLE_BYTES * n);
            assert_eq!(*wire_view(tables.as_flattened()), bulk[1..], "{n} tables");

            let wire = &bulk[1..];
            let fill = |buf: &mut [u8]| -> Result<(), ()> {
                buf.copy_from_slice(wire);
                Ok(())
            };
            // Stale contents must be overwritten, not merged.
            let mut decoded = random_tables(&mut rng, n);
            let mut oracle = decoded.clone();
            tables_from_wire(&mut decoded, fill).unwrap();
            blocks_from_wire_by_block(oracle.as_flattened_mut(), fill).unwrap();
            assert_eq!(decoded, tables, "{n} tables");
            assert_eq!(oracle, tables, "{n} tables");
        }
    }

    #[test]
    fn label_byte_view_matches_the_per_block_loop() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [0usize, 1, 3, 255, 19_968] {
            let labels: Vec<Block> = (0..n).map(|_| Block::random(&mut rng)).collect();
            let mut bulk = vec![0x55];
            blocks_to_wire(&labels, &mut bulk);
            assert_eq!(bulk[1..], blocks_to_wire_by_block(&labels), "{n} labels");
            let mut decoded = vec![Block::from(u128::MAX); n];
            blocks_from_wire(&mut decoded, |buf| -> Result<(), ()> {
                buf.copy_from_slice(&bulk[1..]);
                Ok(())
            })
            .unwrap();
            assert_eq!(decoded, labels, "{n} labels");
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
