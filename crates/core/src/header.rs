//! The splicing header: forwarding bits (§3.2, Algorithm 1).
//!
//! A shim between the network and transport headers carries an opaque
//! bitstream. Each hop reads the rightmost `lg(k)` bits to pick one of
//! `k` forwarding tables, then shifts the stream right so the next hop
//! does the same. End systems change paths *without knowing any paths* —
//! they just write different bits.
//!
//! Two encodings are provided:
//!
//! * [`ForwardingBits`] — the per-hop `lg(k)`-bit scheme of Algorithm 1
//!   (the paper's experiments use 20 hops of bits).
//! * [`CounterHeader`] — the compressed single-number scheme sketched in
//!   §5: any hop seeing a non-zero counter deflects (deterministically,
//!   based on the number) and decrements it.
//!
//! When `ForwardingBits` runs out of bits, §4.4 specifies that traffic
//! "will remain in its current tree en route to the destination"; the
//! forwarder honours that (with the literal Algorithm-1 hash fallback
//! available as an option).

use splice_graph::Rng;

/// Bits needed to select one of `k` slices: `ceil(log2 k)`, and 0 when a
/// single slice leaves nothing to select.
pub fn bits_per_hop(k: usize) -> u8 {
    assert!(k >= 1, "k must be at least 1");
    if k == 1 {
        0
    } else {
        (usize::BITS - (k - 1).leading_zeros()) as u8
    }
}

/// The per-hop forwarding-bits header of Algorithm 1.
///
/// The bitstream is right-aligned: the low `bits_per_hop` bits select the
/// slice at the *next* hop. A 128-bit stream comfortably holds the paper's
/// 20 hops × `lg(k)` bits for any practical `k`.
///
/// The stream is stored as two `u64` words rather than one `u128`, whose
/// 16-byte alignment would pad a `(u32, u32, ForwardingBits)` packet to
/// 48 bytes; as words it packs into 32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardingBits {
    /// Low and high halves of the 128-bit stream.
    words: [u64; 2],
    len_bits: u8,
    bph: u8,
}

impl ForwardingBits {
    fn with_stream(bits: u128, len_bits: u8, bph: u8) -> Self {
        ForwardingBits {
            words: [bits as u64, (bits >> 64) as u64],
            len_bits,
            bph,
        }
    }

    /// The 128-bit stream the two words hold.
    #[inline]
    fn stream(&self) -> u128 {
        (self.words[1] as u128) << 64 | self.words[0] as u128
    }

    /// An empty header (no bits left): traffic stays in its current slice.
    pub fn empty(k: usize) -> Self {
        ForwardingBits::with_stream(0, 0, bits_per_hop(k))
    }

    /// Encode an explicit per-hop slice sequence (`hops[0]` read first).
    ///
    /// # Panics
    /// Panics if a hop value is ≥ `k` or if the encoded stream would
    /// exceed 128 bits.
    pub fn from_hops(hops: &[u8], k: usize) -> Self {
        let bph = bits_per_hop(k);
        assert!(
            hops.len() * bph as usize <= 128,
            "header overflow: {} hops x {} bits",
            hops.len(),
            bph
        );
        let mut bits: u128 = 0;
        // Pack so the first hop occupies the lowest bits.
        for &h in hops.iter().rev() {
            assert!((h as usize) < k, "hop value {h} out of range for k={k}");
            bits = (bits << bph) | h as u128;
        }
        ForwardingBits::with_stream(bits, (hops.len() * bph as usize) as u8, bph)
    }

    /// A header keeping traffic pinned to `slice` for its whole journey:
    /// one explicit hop, then §4.4's stay-in-current-tree behaviour.
    pub fn stay_in_slice(slice: usize, k: usize) -> Self {
        Self::from_hops(&[slice as u8], k)
    }

    /// A fully random header: `hops` hop selectors uniform over `0..k`.
    pub fn random(rng: &mut Rng, hops: usize, k: usize) -> Self {
        let v: Vec<u8> = (0..hops).map(|_| rng.gen_range(0..k) as u8).collect();
        Self::from_hops(&v, k)
    }

    /// Algorithm 1's per-hop step: read the rightmost `lg(k)` bits and
    /// shift them out. `None` once the stream is exhausted (or for k = 1,
    /// which has no bits to read).
    ///
    /// Raw values ≥ `k` (possible when k is not a power of two) are
    /// reduced modulo `k`, keeping every bit pattern meaningful.
    pub fn read_and_shift(&mut self, k: usize) -> Option<usize> {
        if self.bph == 0 || self.len_bits == 0 {
            return None;
        }
        let bits = self.stream();
        let mask = (1u128 << self.bph) - 1;
        let mut raw = (bits & mask) as usize;
        *self = ForwardingBits::with_stream(bits >> self.bph, self.len_bits - self.bph, self.bph);
        // Reduce modulo k without a hardware divide on the hot path: a
        // header built for this k has `raw < 2^lg(k) < 2k`, so one
        // subtract suffices; the real `%` only runs for wire headers
        // whose `bph` is oversized for k.
        if raw >= k {
            raw -= k;
            if raw >= k {
                raw %= k;
            }
        }
        Some(raw)
    }

    /// Hops still encoded in the stream.
    pub fn remaining_hops(&self) -> usize {
        self.len_bits.checked_div(self.bph).unwrap_or(0) as usize
    }

    /// Whether any bits remain.
    pub fn is_exhausted(&self) -> bool {
        self.len_bits == 0 || self.bph == 0
    }

    /// Serialize: `[bph, len_bits, 16 bytes of little-endian bits]`.
    /// This is the wire layout `splice-dataplane` places between the
    /// network and transport headers.
    pub fn to_bytes(&self) -> [u8; 18] {
        let mut out = [0u8; 18];
        out[0] = self.bph;
        out[1] = self.len_bits;
        out[2..].copy_from_slice(&self.stream().to_le_bytes());
        out
    }

    /// Deserialize the wire layout; `None` when the fields are
    /// inconsistent (truncated or corrupted shim).
    ///
    /// Decoding is strict about canonical form: any set bit above
    /// `len_bits` is payload the reader would never consume, so such
    /// shims are rejected rather than silently carrying dead state (which
    /// would also break the decode → encode identity).
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() != 18 {
            return None;
        }
        let (bph, len_bits) = (b[0], b[1]);
        if bph > 8 || (bph > 0 && len_bits % bph != 0) || len_bits as usize > 128 {
            return None;
        }
        if bph == 0 && len_bits != 0 {
            return None; // claims hops but no bits per hop to read them
        }
        let mut raw = [0u8; 16];
        raw.copy_from_slice(&b[2..]);
        let bits = u128::from_le_bytes(raw);
        if len_bits < 128 && (bits >> len_bits) != 0 {
            return None; // non-canonical: set bits beyond the stream
        }
        Some(ForwardingBits::with_stream(bits, len_bits, bph))
    }
}

/// §5's compressed encoding: the forwarding bits reduced to one number.
/// A hop seeing a non-zero counter deflects to an alternate slice chosen
/// deterministically from the number, then decrements it; zero means
/// "stay".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHeader {
    /// Remaining deflections.
    pub counter: u32,
}

impl CounterHeader {
    /// A header causing `n` deflections.
    pub fn new(n: u32) -> Self {
        CounterHeader { counter: n }
    }

    /// Per-hop step: returns the slice to use given the current slice,
    /// and decrements on deflection. Deterministic in (counter, current),
    /// so the same header always traces the same path.
    pub fn step(&mut self, current_slice: usize, k: usize) -> usize {
        if self.counter == 0 || k <= 1 {
            return current_slice;
        }
        // Pick one of the other k-1 slices from the counter value.
        let offset = 1 + (self.counter as usize - 1) % (k - 1);
        let next = (current_slice + offset) % k;
        self.counter -= 1;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::Rng;

    #[test]
    fn bits_per_hop_values() {
        assert_eq!(bits_per_hop(1), 0);
        assert_eq!(bits_per_hop(2), 1);
        assert_eq!(bits_per_hop(3), 2);
        assert_eq!(bits_per_hop(4), 2);
        assert_eq!(bits_per_hop(5), 3);
        assert_eq!(bits_per_hop(10), 4);
        assert_eq!(bits_per_hop(16), 4);
    }

    #[test]
    fn encode_decode_order() {
        let mut h = ForwardingBits::from_hops(&[2, 0, 3, 1], 4);
        assert_eq!(h.remaining_hops(), 4);
        assert_eq!(h.read_and_shift(4), Some(2));
        assert_eq!(h.read_and_shift(4), Some(0));
        assert_eq!(h.read_and_shift(4), Some(3));
        assert_eq!(h.read_and_shift(4), Some(1));
        assert_eq!(h.read_and_shift(4), None);
        assert!(h.is_exhausted());
    }

    #[test]
    fn twenty_hops_fit() {
        // The paper's setting: 20 hops, k up to 10 (4 bits) = 80 bits.
        let hops = vec![9u8; 20];
        let mut h = ForwardingBits::from_hops(&hops, 10);
        for _ in 0..20 {
            assert_eq!(h.read_and_shift(10), Some(9));
        }
        assert!(h.is_exhausted());
    }

    #[test]
    fn k_one_has_no_bits() {
        let mut h = ForwardingBits::stay_in_slice(0, 1);
        assert!(h.is_exhausted());
        assert_eq!(h.read_and_shift(1), None);
    }

    #[test]
    fn non_power_of_two_values_reduced() {
        // k = 3 uses 2 bits; a raw 3 decodes as 3 % 3 = 0.
        let mut h = ForwardingBits::from_hops(&[3], 4);
        assert_eq!(h.read_and_shift(3), Some(0));
        // A wire header whose `bph` is oversized for k takes the `%`.
        let mut wire = [0u8; 18];
        (wire[0], wire[1], wire[2]) = (4, 4, 7);
        let mut h = ForwardingBits::from_bytes(&wire).unwrap();
        assert_eq!(h.read_and_shift(3), Some(1));
    }

    /// A packet is `(src, dst, ForwardingBits)`; the stream's storage
    /// must not pad it past half a cache line.
    #[test]
    fn a_packet_fits_in_32_bytes() {
        assert!(std::mem::size_of::<(u32, u32, ForwardingBits)>() <= 32);
    }

    /// Reading crosses the boundary between the two stream words the way
    /// one 128-bit shift does: hops straddling bit 64 come out intact.
    #[test]
    fn hops_straddling_the_word_boundary_read_back() {
        let hops: Vec<u8> = (0..42).map(|i| (i * 5 % 8) as u8).collect();
        let mut h = ForwardingBits::from_hops(&hops, 8);
        for &want in &hops {
            assert_eq!(h.read_and_shift(8), Some(want as usize));
        }
        assert!(h.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_value_bounds_checked() {
        ForwardingBits::from_hops(&[4], 4);
    }

    #[test]
    #[should_panic(expected = "header overflow")]
    fn overflow_rejected() {
        ForwardingBits::from_hops(&[1u8; 65], 4); // 65*2 = 130 bits
    }

    #[test]
    fn random_headers_in_range() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..100 {
            let mut h = ForwardingBits::random(&mut rng, 20, 5);
            while let Some(s) = h.read_and_shift(5) {
                assert!(s < 5);
            }
        }
    }

    #[test]
    fn wire_roundtrip() {
        let h = ForwardingBits::from_hops(&[1, 2, 3, 0, 1], 4);
        let bytes = h.to_bytes();
        let h2 = ForwardingBits::from_bytes(&bytes).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(ForwardingBits::from_bytes(&[0u8; 4]).is_none()); // short
        let mut bad = [0u8; 18];
        bad[0] = 9; // bph > 8
        assert!(ForwardingBits::from_bytes(&bad).is_none());
        let mut bad2 = [0u8; 18];
        bad2[0] = 3;
        bad2[1] = 4; // not a multiple of bph
        assert!(ForwardingBits::from_bytes(&bad2).is_none());
    }

    #[test]
    fn wire_rejects_noncanonical_shims() {
        // Valid header, then a stray bit above len_bits: 2 hops x 2 bits
        // = 4 live bits, bit 5 set.
        let mut bytes = ForwardingBits::from_hops(&[1, 2], 4).to_bytes();
        bytes[2] |= 1 << 5;
        assert!(ForwardingBits::from_bytes(&bytes).is_none());
        // bph = 0 cannot carry hops.
        let mut bad = [0u8; 18];
        bad[1] = 4; // len_bits > 0 with bph == 0
        assert!(ForwardingBits::from_bytes(&bad).is_none());
        // A full 128-bit stream is still canonical by definition.
        let full = ForwardingBits::from_hops(&[3u8; 64], 4);
        assert_eq!(ForwardingBits::from_bytes(&full.to_bytes()), Some(full));
    }

    #[test]
    fn wire_decode_encode_identity() {
        // Any accepted shim re-encodes to the same 18 bytes.
        for h in [
            ForwardingBits::empty(4),
            ForwardingBits::stay_in_slice(3, 8),
            ForwardingBits::from_hops(&[0, 1, 2, 3, 4], 5),
        ] {
            let bytes = h.to_bytes();
            let decoded = ForwardingBits::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, h);
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn stay_in_slice_pins() {
        let mut h = ForwardingBits::stay_in_slice(2, 4);
        assert_eq!(h.read_and_shift(4), Some(2));
        assert!(h.is_exhausted()); // forwarder then stays in slice 2
    }

    #[test]
    fn counter_header_deflects_and_drains() {
        let mut c = CounterHeader::new(2);
        let s1 = c.step(0, 4);
        assert_ne!(s1, 0, "non-zero counter must deflect");
        assert_eq!(c.counter, 1);
        let s2 = c.step(s1, 4);
        assert_ne!(s2, s1);
        assert_eq!(c.counter, 0);
        // Drained: stays put forever.
        assert_eq!(c.step(s2, 4), s2);
        assert_eq!(c.step(s2, 4), s2);
    }

    #[test]
    fn counter_header_single_slice_noop() {
        let mut c = CounterHeader::new(5);
        assert_eq!(c.step(0, 1), 0);
        assert_eq!(c.counter, 5, "k=1 cannot consume deflections");
    }

    #[test]
    fn counter_header_deterministic() {
        let trace = |mut c: CounterHeader| {
            let mut s = 0;
            let mut path = Vec::new();
            for _ in 0..6 {
                s = c.step(s, 5);
                path.push(s);
            }
            path
        };
        assert_eq!(trace(CounterHeader::new(3)), trace(CounterHeader::new(3)));
    }
}
