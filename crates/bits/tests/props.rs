//! Property-based tests for the encoding substrate.

use oraclesize_bits::codec::{
    decode_doubled_header, encode_doubled_header, AnyCodec, Codec, ContinuationPairs, EliasDelta,
    EliasGamma,
};
use oraclesize_bits::lists::{
    decode_port_list, decode_weight_list, encode_port_list, encode_weight_list, port_list_len,
    weight_list_len,
};
use oraclesize_bits::{bits_to_represent, BitReader, BitString};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bitstring_roundtrip_bools(bits in proptest::collection::vec(any::<bool>(), 0..512)) {
        let s = BitString::from_bits(bits.iter().copied());
        prop_assert_eq!(s.len(), bits.len());
        let back: Vec<bool> = s.iter().collect();
        prop_assert_eq!(back, bits);
    }

    #[test]
    fn bitstring_push_uint_get(v in any::<u64>(), w in 0u32..=64) {
        let v = if w == 64 { v } else { v & ((1u64 << w) - 1) };
        let mut s = BitString::new();
        s.push_uint(v, w);
        prop_assert_eq!(s.reader().read_uint(w), Some(v));
    }

    #[test]
    fn gamma_roundtrip(v in 0u64..u64::MAX) {
        let mut s = BitString::new();
        EliasGamma.encode(v, &mut s);
        prop_assert_eq!(s.len(), EliasGamma.encoded_len(v));
        prop_assert_eq!(EliasGamma.decode(&mut s.reader()), Some(v));
    }

    #[test]
    fn delta_roundtrip(v in 0u64..u64::MAX) {
        let mut s = BitString::new();
        EliasDelta.encode(v, &mut s);
        prop_assert_eq!(s.len(), EliasDelta.encoded_len(v));
        prop_assert_eq!(EliasDelta.decode(&mut s.reader()), Some(v));
    }

    #[test]
    fn continuation_pairs_roundtrip_and_len(v in any::<u64>()) {
        let mut s = BitString::new();
        ContinuationPairs.encode(v, &mut s);
        prop_assert_eq!(s.len(), 2 * bits_to_represent(v) as usize);
        prop_assert_eq!(ContinuationPairs.decode(&mut s.reader()), Some(v));
    }

    #[test]
    fn doubled_header_roundtrip(v in any::<u64>()) {
        let mut s = BitString::new();
        encode_doubled_header(v, &mut s);
        prop_assert_eq!(decode_doubled_header(&mut s.reader()), Some(v));
    }

    #[test]
    fn codec_streams_concatenate(values in proptest::collection::vec(0u64..1_000_000, 0..50)) {
        for codec in AnyCodec::ALL {
            if codec == AnyCodec::Unary && values.iter().any(|&v| v > 10_000) {
                continue;
            }
            let mut s = BitString::new();
            for &v in &values {
                codec.encode(v, &mut s);
            }
            let mut r = s.reader();
            for &v in &values {
                prop_assert_eq!(codec.decode(&mut r), Some(v), "codec {}", codec.name());
            }
            prop_assert!(r.is_empty());
        }
    }

    #[test]
    fn port_list_roundtrip(n in 2u64..5000, raw in proptest::collection::vec(any::<u64>(), 0..64)) {
        let ports: Vec<u64> = raw.iter().map(|&p| p % n).collect();
        let enc = encode_port_list(&ports, n);
        prop_assert_eq!(enc.len(), port_list_len(ports.len(), n));
        prop_assert_eq!(decode_port_list(&enc), Some(ports));
    }

    #[test]
    fn weight_list_roundtrip(weights in proptest::collection::vec(any::<u64>(), 0..64)) {
        let enc = encode_weight_list(&weights);
        prop_assert_eq!(enc.len(), weight_list_len(&weights));
        prop_assert_eq!(decode_weight_list(&enc), Some(weights));
    }

    #[test]
    fn random_bits_never_panic_decoders(bits in proptest::collection::vec(any::<bool>(), 0..256)) {
        // Fuzz: arbitrary bit strings must decode to Some or None, never panic.
        let s = BitString::from_bits(bits);
        let _ = decode_port_list(&s);
        let _ = decode_weight_list(&s);
        let _ = decode_doubled_header(&mut s.reader());
        for codec in AnyCodec::ALL {
            let _ = codec.decode(&mut s.reader());
        }
    }
}

/// Bit-by-bit reference for `BitString::push_uint`: LSB first, one bit per
/// step.
fn push_uint_reference(s: &mut BitString, value: u64, width: u32) {
    for i in 0..width {
        s.push((value >> i) & 1 == 1);
    }
}

/// Bit-by-bit reference for `BitReader::read_uint`: `None` consuming
/// nothing on a short read.
fn read_uint_reference(r: &mut BitReader<'_>, width: u32) -> Option<u64> {
    if r.remaining() < width as usize {
        return None;
    }
    let mut v = 0u64;
    for i in 0..width {
        if r.read_bit()? {
            v |= 1 << i;
        }
    }
    Some(v)
}

proptest! {
    /// The byte-wise codec writes the same bytes and length, and reads the
    /// same values, as one bit per step — at every starting offset within a
    /// byte and every width, with bits appended after, and on short reads.
    #[test]
    fn bytewise_uint_codec_matches_bit_by_bit_reference(
        value in any::<u64>(),
        head in any::<u8>(),
        tail in any::<u8>(),
    ) {
        for off in 0..8u32 {
            let head = u64::from(head) & ((1 << off) - 1);
            for width in 0..=64u32 {
                let v = if width == 64 { value } else { value & ((1 << width) - 1) };
                let mut fast = BitString::new();
                let mut slow = BitString::new();
                push_uint_reference(&mut fast, head, off);
                push_uint_reference(&mut slow, head, off);
                fast.push_uint(v, width);
                push_uint_reference(&mut slow, v, width);
                prop_assert_eq!(&fast, &slow, "off {} width {}", off, width);

                // Reads at the same offset agree, then a short read past the
                // end returns None and consumes nothing.
                let (mut rf, mut rs) = (fast.reader(), slow.reader());
                prop_assert_eq!(rf.read_uint(off), read_uint_reference(&mut rs, off));
                if width < 64 {
                    prop_assert_eq!(rf.clone().read_uint(width + 1), None);
                    prop_assert_eq!(read_uint_reference(&mut rs.clone(), width + 1), None);
                }
                prop_assert_eq!(rf.read_uint(width), Some(v));
                prop_assert_eq!(read_uint_reference(&mut rs, width), Some(v));
                prop_assert_eq!(rf.position(), (off + width) as usize);

                // Bits appended after the value land where single bits would.
                fast.push_uint(u64::from(tail & 0x1f), 5);
                push_uint_reference(&mut slow, u64::from(tail & 0x1f), 5);
                prop_assert_eq!(&fast, &slow, "tail after off {} width {}", off, width);
                let mut rf = fast.reader();
                prop_assert_eq!(rf.read_uint(off), Some(head));
                prop_assert_eq!(rf.read_uint(width), Some(v));
                prop_assert_eq!(rf.read_uint(6), None);
                prop_assert_eq!(rf.read_uint(5), Some(u64::from(tail & 0x1f)));
            }
        }
    }
}
