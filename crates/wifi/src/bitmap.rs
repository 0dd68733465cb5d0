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

/// A full virtual bitmap over association IDs, with lossless
/// trim/expand conversion to the transmitted partial form.
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
/// let trimmed = b.trim();
/// // AID 21 lives in octet 2, so one leading zero-byte pair is trimmed.
/// assert_eq!(trimmed.offset(), 2);
/// assert_eq!(trimmed.bytes(), &[0b0010_0000]);
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

    /// Produces the compressed (trimmed) representation transmitted on
    /// air, per Fig. 5 of the paper: leading zero bytes are trimmed to
    /// the largest even `N1`, trailing zero bytes after the last
    /// non-zero byte are dropped.
    pub fn trim(&self) -> TrimmedBitmap {
        let mut bytes = Vec::new();
        let offset = self.trim_into(&mut bytes);
        TrimmedBitmap { offset, bytes }
    }

    /// Like [`PartialVirtualBitmap::trim`], but writes the transmitted
    /// bytes into `scratch` (cleared first) and returns the offset
    /// `N1` — the allocation-free path used by per-beacon encoders,
    /// which keep one scratch buffer alive across DTIM cycles.
    pub fn trim_into(&self, scratch: &mut Vec<u8>) -> usize {
        scratch.clear();
        self.append_trimmed_to(scratch)
    }

    /// Appends the trimmed bitmap bytes to `out` (without clearing it)
    /// and returns the offset `N1`. Lets encoders build element bodies
    /// in one pass over a single reused buffer.
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

    /// Reconstructs a full bitmap from a trimmed representation.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::OddBitmapOffset`] when the offset is odd and
    /// [`WifiError::BitmapTooLong`] when `offset + bytes` exceeds the
    /// virtual bitmap size.
    pub fn from_trimmed(trimmed: &TrimmedBitmap) -> Result<Self, WifiError> {
        check_span(trimmed.offset, trimmed.bytes.len())?;
        Ok(PartialVirtualBitmap::from_span(
            trimmed.offset,
            &trimmed.bytes,
        ))
    }

    /// A bitmap holding `bytes` at octet `offset` and zero elsewhere,
    /// copied straight from the slice. The caller has checked the span
    /// with [`check_span`].
    pub(crate) fn from_span(offset: usize, bytes: &[u8]) -> Self {
        let mut full = PartialVirtualBitmap::new();
        full.bits[offset..offset + bytes.len()].copy_from_slice(bytes);
        full
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

/// The on-air compressed form of a [`PartialVirtualBitmap`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrimmedBitmap {
    offset: usize,
    bytes: Vec<u8>,
}

impl TrimmedBitmap {
    /// Builds a trimmed bitmap from raw parts (e.g. decoded from air).
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::OddBitmapOffset`] for an odd offset,
    /// [`WifiError::BitmapTooLong`] when the bitmap exceeds the virtual
    /// bitmap size, and [`WifiError::BadElementLength`] when `bytes` is
    /// empty.
    pub fn from_parts(offset: usize, bytes: Vec<u8>) -> Result<Self, WifiError> {
        check_span(offset, bytes.len())?;
        Ok(TrimmedBitmap { offset, bytes })
    }

    /// The byte offset `N1` of the first transmitted byte.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The transmitted bitmap bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total transmitted length in bytes (offset field excluded).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the (single mandatory) byte is zero.
    pub fn is_empty(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// Whether `aid`'s bit is set, without expanding to a full bitmap.
    pub fn is_set(&self, aid: Aid) -> bool {
        span_is_set(self.offset, &self.bytes, aid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    #[test]
    fn empty_bitmap_trims_to_single_zero_byte() {
        let b = PartialVirtualBitmap::new();
        let t = b.trim();
        assert_eq!(t.offset(), 0);
        assert_eq!(t.bytes(), &[0]);
        assert!(t.is_empty());
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
        // AID 24 -> octet 3; trimming must round down to N1 = 2.
        let mut b = PartialVirtualBitmap::new();
        b.set(aid(24));
        let t = b.trim();
        assert_eq!(t.offset(), 2);
        assert_eq!(t.bytes().len(), 2);
        assert_eq!(t.bytes()[0], 0); // padding byte at octet 2
        assert_eq!(t.bytes()[1], 1 << 0); // AID 24 = octet 3, bit 0
    }

    #[test]
    fn trim_drops_trailing_zeros() {
        let mut b = PartialVirtualBitmap::new();
        b.set(aid(1));
        let t = b.trim();
        assert_eq!(t.offset(), 0);
        assert_eq!(t.bytes(), &[0b10]);
    }

    #[test]
    fn trim_expand_round_trip() {
        let mut b = PartialVirtualBitmap::new();
        for v in [3u16, 17, 120, 121, 1999] {
            b.set(aid(v));
        }
        let t = b.trim();
        let back = PartialVirtualBitmap::from_trimmed(&t).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn trimmed_is_set_matches_full() {
        let mut b = PartialVirtualBitmap::new();
        for v in [10u16, 55, 900] {
            b.set(aid(v));
        }
        let t = b.trim();
        for v in 1..=MAX_AID {
            assert_eq!(t.is_set(aid(v)), b.is_set(aid(v)), "aid {v}");
        }
    }

    #[test]
    fn from_parts_validation() {
        assert!(matches!(
            TrimmedBitmap::from_parts(1, vec![0xff]),
            Err(WifiError::OddBitmapOffset(1))
        ));
        assert!(TrimmedBitmap::from_parts(0, vec![]).is_err());
        assert!(matches!(
            TrimmedBitmap::from_parts(250, vec![0, 0]),
            Err(WifiError::BitmapTooLong(_))
        ));
        assert!(TrimmedBitmap::from_parts(250, vec![0xff]).is_ok());
    }

    #[test]
    fn from_trimmed_rejects_bad_input() {
        let t = TrimmedBitmap {
            offset: 3,
            bytes: vec![1],
        };
        assert!(PartialVirtualBitmap::from_trimmed(&t).is_err());
        let t = TrimmedBitmap {
            offset: 0,
            bytes: vec![0; 252],
        };
        assert!(PartialVirtualBitmap::from_trimmed(&t).is_err());
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
        let mut b = PartialVirtualBitmap::new();
        // Put bits in octets 4 and 6 only.
        b.set(aid(4 * 8 + 1)); // octet 4
        b.set(aid(6 * 8 + 5)); // octet 6
        let t = b.trim();
        assert_eq!(t.offset(), 4);
        assert_eq!(t.bytes().len(), 3); // octets 4, 5, 6
        assert_eq!(t.bytes()[1], 0);
    }

    #[test]
    fn trim_into_reuses_scratch_and_matches_trim() {
        let mut scratch = Vec::new();
        for aids in [vec![], vec![1u16], vec![24], vec![3, 17, 120, 1999]] {
            let mut b = PartialVirtualBitmap::new();
            for v in aids {
                b.set(aid(v));
            }
            let offset = b.trim_into(&mut scratch);
            let t = b.trim();
            assert_eq!(offset, t.offset());
            assert_eq!(&scratch, t.bytes());
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
            let t = b.trim();
            assert_eq!((t.offset(), t.bytes().len()), span, "{aids:?}");
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
