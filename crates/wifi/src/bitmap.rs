//! The 802.11 partial virtual bitmap.
//!
//! Both the standard TIM element and the HIDE BTIM element carry a
//! compressed view of a 251-byte *virtual bitmap* in which bit `k` belongs
//! to the client with AID `k`. Compression (Fig. 5 of the paper) trims
//! leading zero bytes down to an even count `N1` and trailing zero bytes
//! after the last non-zero byte `N2`; only bytes `N1..=N2` are
//! transmitted, together with `Offset = N1`.

use crate::error::WifiError;
use crate::mac::{Aid, MAX_AID};
use std::fmt;

/// Number of bytes in the full virtual bitmap (AIDs 0..=2007).
pub const VIRTUAL_BITMAP_BYTES: usize = 251;

/// Octets per word of the word-at-a-time scans.
const WORD_BYTES: usize = 8;
/// Where the 3-byte tail after the 31 whole words begins.
const TAIL_AT: usize = VIRTUAL_BITMAP_BYTES / WORD_BYTES * WORD_BYTES;

/// Checks that `len` bytes at octet `offset` form a transmittable
/// span of the virtual bitmap: an even offset, at least one byte, and
/// no byte past octet 250.
pub(crate) fn check_span(offset: usize, len: usize) -> Result<(), WifiError> {
    if !offset.is_multiple_of(2) {
        return Err(WifiError::OddBitmapOffset(offset));
    }
    if len == 0 {
        return Err(WifiError::BadElementLength {
            element_id: 0,
            declared: 0,
        });
    }
    if offset + len > VIRTUAL_BITMAP_BYTES {
        return Err(WifiError::BitmapTooLong(offset + len));
    }
    Ok(())
}

/// Whether `aid`'s bit is set in the span `bytes` that starts at octet
/// `offset` (clear outside the span).
pub(crate) fn span_is_set(offset: usize, bytes: &[u8], aid: Aid) -> bool {
    aid.octet()
        .checked_sub(offset)
        .and_then(|i| bytes.get(i))
        .is_some_and(|b| b & (1 << aid.bit()) != 0)
}

/// A full virtual bitmap over association IDs, which the beacon writer
/// trims to the transmitted partial form.
///
/// # Example
///
/// ```
/// use hide_wifi::bitmap::PartialVirtualBitmap;
/// use hide_wifi::mac::Aid;
///
/// let mut b = PartialVirtualBitmap::new();
/// b.set(Aid::new(21)?);
/// assert!(b.is_set(Aid::new(21)?));
///
/// let mut on_air = Vec::new();
/// // AID 21 lives in octet 2, so one leading zero-byte pair is trimmed.
/// assert_eq!(b.append_trimmed_to(&mut on_air), 2);
/// assert_eq!(on_air, [0b0010_0000]);
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialVirtualBitmap {
    // Inline array, not a Vec: the AP rebuilds flags every DTIM beacon,
    // and an inline bitmap makes construction/reset allocation-free.
    bits: [u8; VIRTUAL_BITMAP_BYTES],
}

impl PartialVirtualBitmap {
    /// Creates an empty bitmap (all AIDs clear).
    pub fn new() -> Self {
        PartialVirtualBitmap {
            bits: [0u8; VIRTUAL_BITMAP_BYTES],
        }
    }

    /// Sets the bit for `aid`.
    pub fn set(&mut self, aid: Aid) {
        self.bits[aid.octet()] |= 1 << aid.bit();
    }

    /// Clears the bit for `aid`.
    pub fn clear(&mut self, aid: Aid) {
        self.bits[aid.octet()] &= !(1 << aid.bit());
    }

    /// Clears every bit.
    pub fn reset(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = 0);
    }

    /// Returns whether the bit for `aid` is set.
    pub fn is_set(&self, aid: Aid) -> bool {
        self.bits[aid.octet()] & (1 << aid.bit()) != 0
    }

    /// The first 248 octets as 31 little-endian words, each with the
    /// octet index it starts at; [`Self::tail`] holds the other three.
    fn words(&self) -> impl DoubleEndedIterator<Item = (usize, u64)> + '_ {
        self.bits[..TAIL_AT]
            .chunks_exact(WORD_BYTES)
            .enumerate()
            .map(|(k, word)| {
                let word = word.try_into().expect("chunks_exact yields whole words");
                (k * WORD_BYTES, u64::from_le_bytes(word))
            })
    }

    /// The octets after the last whole word.
    fn tail(&self) -> &[u8] {
        &self.bits[TAIL_AT..]
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words().all(|(_, w)| w == 0) && self.tail().iter().all(|&b| b == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        let words: u32 = self.words().map(|(_, w)| w.count_ones()).sum();
        let tail: u32 = self.tail().iter().map(|b| b.count_ones()).sum();
        (words + tail) as usize
    }

    /// Iterates over the AIDs whose bits are set, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Aid> + '_ {
        (1..=MAX_AID)
            .map(|v| Aid::new(v).expect("range is valid"))
            .filter(move |aid| self.is_set(*aid))
    }

    /// Appends the bitmap as transmitted on air to `out` (without
    /// clearing it) and returns the offset `N1`, per Fig. 5 of the
    /// paper: leading zero bytes are trimmed to the largest even `N1`,
    /// trailing zero bytes after the last non-zero byte are dropped,
    /// and an all-zero bitmap is one zero byte at offset 0.
    pub fn append_trimmed_to(&self, out: &mut Vec<u8>) -> usize {
        let (n1, len) = self.trimmed_span();
        if len == 1 && self.bits[n1] == 0 {
            // All zero: the standard encodes a single zero byte at offset 0.
            out.push(0);
        } else {
            out.extend_from_slice(&self.bits[n1..n1 + len]);
        }
        n1
    }

    /// The `(offset, length)` the trimmed encoding will occupy, without
    /// materializing it — `N1` and `N2 - N1 + 1` of Fig. 5 (an all-zero
    /// bitmap reports `(0, 1)` for the mandatory single zero byte).
    pub fn trimmed_span(&self) -> (usize, usize) {
        // In a little-endian word the lowest-addressed octet is the
        // least significant: trailing zero bits over 8 count the zero
        // octets before the first nonzero one, leading zero bits over 8
        // those after the last.
        let first = self
            .words()
            .find(|&(_, w)| w != 0)
            .map(|(at, w)| at + (w.trailing_zeros() / 8) as usize)
            .or_else(|| {
                self.tail()
                    .iter()
                    .position(|&b| b != 0)
                    .map(|i| TAIL_AT + i)
            });
        let Some(first) = first else {
            return (0, 1);
        };
        let last = match self.tail().iter().rposition(|&b| b != 0) {
            Some(i) => TAIL_AT + i,
            None => self
                .words()
                .rev()
                .find(|&(_, w)| w != 0)
                .map(|(at, w)| at + 7 - (w.leading_zeros() / 8) as usize)
                .expect("a nonzero octet exists"),
        };
        let n1 = first & !1; // round down to even
        (n1, last - n1 + 1)
    }
}

impl Default for PartialVirtualBitmap {
    fn default() -> Self {
        PartialVirtualBitmap::new()
    }
}

impl fmt::Debug for PartialVirtualBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set: Vec<u16> = (1..=MAX_AID)
            .filter(|&v| {
                let aid = Aid::new(v).expect("in range");
                self.is_set(aid)
            })
            .collect();
        f.debug_struct("PartialVirtualBitmap")
            .field("set_aids", &set)
            .finish()
    }
}

impl FromIterator<Aid> for PartialVirtualBitmap {
    fn from_iter<I: IntoIterator<Item = Aid>>(iter: I) -> Self {
        let mut bitmap = PartialVirtualBitmap::new();
        for aid in iter {
            bitmap.set(aid);
        }
        bitmap
    }
}

impl Extend<Aid> for PartialVirtualBitmap {
    fn extend<I: IntoIterator<Item = Aid>>(&mut self, iter: I) {
        for aid in iter {
            self.set(aid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    /// The bitmap as transmitted: `(N1, bytes)`.
    fn on_air(b: &PartialVirtualBitmap) -> (usize, Vec<u8>) {
        let mut bytes = Vec::new();
        let n1 = b.append_trimmed_to(&mut bytes);
        (n1, bytes)
    }

    #[test]
    fn empty_bitmap_trims_to_single_zero_byte() {
        assert_eq!(on_air(&PartialVirtualBitmap::new()), (0, vec![0]));
    }

    #[test]
    fn set_clear_is_set() {
        let mut b = PartialVirtualBitmap::new();
        assert!(!b.is_set(aid(7)));
        b.set(aid(7));
        assert!(b.is_set(aid(7)));
        b.clear(aid(7));
        assert!(!b.is_set(aid(7)));
        assert!(b.is_empty());
    }

    #[test]
    fn count_and_reset() {
        let mut b = PartialVirtualBitmap::new();
        for v in [1u16, 2, 300, 2007] {
            b.set(aid(v));
        }
        assert_eq!(b.count(), 4);
        b.reset();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn trim_offset_is_even() {
        // AID 24 -> octet 3; trimming must round down to N1 = 2, with
        // a padding byte at octet 2 and AID 24 in bit 0 of octet 3.
        let b: PartialVirtualBitmap = [aid(24)].into_iter().collect();
        assert_eq!(on_air(&b), (2, vec![0, 1]));
    }

    #[test]
    fn trim_drops_trailing_zeros() {
        let b: PartialVirtualBitmap = [aid(1)].into_iter().collect();
        assert_eq!(on_air(&b), (0, vec![0b10]));
    }

    #[test]
    fn trimmed_bytes_answer_every_aid() {
        let b: PartialVirtualBitmap = [3u16, 10, 17, 55, 120, 121, 900, 1999]
            .into_iter()
            .map(aid)
            .collect();
        let (n1, bytes) = on_air(&b);
        for v in 1..=MAX_AID {
            assert_eq!(span_is_set(n1, &bytes, aid(v)), b.is_set(aid(v)), "aid {v}");
        }
    }

    #[test]
    fn check_span_validation() {
        assert_eq!(check_span(1, 1), Err(WifiError::OddBitmapOffset(1)));
        assert_eq!(check_span(3, 1), Err(WifiError::OddBitmapOffset(3)));
        assert!(matches!(
            check_span(0, 0),
            Err(WifiError::BadElementLength { .. })
        ));
        assert_eq!(check_span(250, 2), Err(WifiError::BitmapTooLong(252)));
        assert_eq!(check_span(0, 252), Err(WifiError::BitmapTooLong(252)));
        assert_eq!(check_span(250, 1), Ok(()));
    }

    #[test]
    fn collect_from_iterator() {
        let b: PartialVirtualBitmap = [aid(4), aid(9)].into_iter().collect();
        assert!(b.is_set(aid(4)));
        assert!(b.is_set(aid(9)));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn extend_adds_bits() {
        let mut b = PartialVirtualBitmap::new();
        b.extend([aid(2), aid(2000)]);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn paper_figure5_example_shape() {
        // Fig. 5: all-zero prefix of N1 bytes, data in N1..=N2, zero tail.
        // Bits in octets 4 and 6 only: octets 4, 5, 6 go on air.
        let b: PartialVirtualBitmap = [aid(4 * 8 + 1), aid(6 * 8 + 5)].into_iter().collect();
        assert_eq!(on_air(&b), (4, vec![0b10, 0, 0b10_0000]));
    }

    #[test]
    fn append_trimmed_to_keeps_what_the_buffer_holds() {
        let mut out = vec![0xaa, 0xbb];
        for aids in [vec![], vec![1u16], vec![24], vec![3, 17, 120, 1999]] {
            let b: PartialVirtualBitmap = aids.into_iter().map(aid).collect();
            let (n1, bytes) = on_air(&b);
            out.truncate(2);
            assert_eq!(b.append_trimmed_to(&mut out), n1);
            assert_eq!(out[..2], [0xaa, 0xbb]);
            assert_eq!(out[2..], bytes[..]);
        }
    }

    #[test]
    fn word_scans_see_word_edges_and_the_tail() {
        // (AIDs, trimmed span): octets 7|8 and 247|248 straddle a word
        // boundary; 248–250 are the tail after the last whole word.
        let cases: [(&[u16], (usize, usize)); 6] = [
            (&[2007], (250, 1)),
            (&[1984], (248, 1)),
            (&[63, 64], (6, 3)),
            (&[1983, 1984], (246, 3)),
            (&[64, 1983], (8, 240)),
            (&[1, 2007], (0, 251)),
        ];
        for (aids, span) in cases {
            let b: PartialVirtualBitmap = aids.iter().map(|&v| aid(v)).collect();
            assert!(!b.is_empty(), "{aids:?}");
            assert_eq!(b.count(), aids.len(), "{aids:?}");
            assert_eq!(b.trimmed_span(), span, "{aids:?}");
            let (n1, bytes) = on_air(&b);
            assert_eq!((n1, bytes.len()), span, "{aids:?}");
        }
    }

    #[test]
    fn debug_lists_set_aids() {
        let mut b = PartialVirtualBitmap::new();
        b.set(aid(42));
        let dbg = format!("{b:?}");
        assert!(dbg.contains("42"));
    }
}
