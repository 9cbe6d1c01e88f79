//! Bit-level advice encoding for the `oraclesize` project.
//!
//! The oracles of Fraigniaud, Ilcinkas and Pelc (PODC 2006) assign to every
//! node of a network a *binary string*, and the size of an oracle is the sum
//! of the lengths of these strings, **in bits**. This crate provides the
//! bit-exact substrate for those strings:
//!
//! * [`BitString`] — a growable, packed sequence of bits with bit-exact
//!   length accounting,
//! * [`BitReader`] — a cursor for decoding,
//! * [`codec`] — self-delimiting integer codes, including the two codes used
//!   by the paper: the *doubled-header* port-list code of Theorem 2.1 and the
//!   *continuation-pair* weight code of Theorem 3.1 (which spends exactly
//!   `2·#2(w)` bits per weight),
//! * [`lists`] — the full per-node advice payloads built from those codes.
//!
//! # Examples
//!
//! ```
//! use oraclesize_bits::{BitString, codec::{Codec, EliasGamma}};
//!
//! let mut s = BitString::new();
//! EliasGamma.encode(17, &mut s);
//! let mut r = s.reader();
//! assert_eq!(EliasGamma.decode(&mut r), Some(17));
//! assert!(r.is_empty());
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod bitstring;
pub mod codec;
pub mod lists;
pub mod numeric;
pub mod reader;

pub use bitset::BitSet;
pub use bitstring::BitString;
pub use numeric::{bits_to_represent, ceil_log2};
pub use reader::BitReader;
