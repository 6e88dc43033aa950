//! Typed views over message payloads.
//!
//! Messages travel as bytes; [`MpiType`] converts slices of plain numeric
//! types to and from them with explicit little-endian encoding (no
//! `unsafe`, per the data-race-freedom discipline of the surrounding
//! codebase). Encoding appends each element's `WIRE_SIZE` bytes to a
//! buffer with room for them all, one pass that writes every byte once;
//! decoding is the mirror pass.

use crate::error::{MpiError, MpiResult};
use crate::p2p::{Payload, EAGER_LIMIT, INLINE};
use crate::pool::BufferPool;
use std::sync::Arc;

/// A plain datatype that can cross the message-passing layer.
pub trait MpiType: Copy + Send + Sync + 'static {
    /// Size of one element in bytes on the wire.
    const WIRE_SIZE: usize;

    /// Writes the little-endian encoding of `self` into `out`, which is
    /// exactly `WIRE_SIZE` bytes.
    fn write_le(&self, out: &mut [u8]);

    /// Appends the little-endian encoding of every element of `data` to
    /// `out`, writing each byte once.
    fn extend_le(data: &[Self], out: &mut Vec<u8>);

    /// Decodes one element from exactly `WIRE_SIZE` bytes.
    fn read_from(bytes: &[u8]) -> Self;
}

macro_rules! impl_mpi_type {
    ($($t:ty),*) => {$(
        impl MpiType for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn extend_le(data: &[Self], out: &mut Vec<u8>) {
                out.extend(data.iter().flat_map(|x| x.to_le_bytes()));
            }

            #[inline]
            fn read_from(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("read_from requires WIRE_SIZE bytes"))
            }
        }
    )*};
}

impl_mpi_type!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl MpiType for usize {
    const WIRE_SIZE: usize = 8;

    #[inline]
    fn write_le(&self, out: &mut [u8]) {
        out.copy_from_slice(&(*self as u64).to_le_bytes());
    }

    #[inline]
    fn extend_le(data: &[Self], out: &mut Vec<u8>) {
        out.extend(data.iter().flat_map(|&x| (x as u64).to_le_bytes()));
    }

    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("read_from requires 8 bytes")) as usize
    }
}

impl MpiType for bool {
    const WIRE_SIZE: usize = 1;

    #[inline]
    fn write_le(&self, out: &mut [u8]) {
        out[0] = u8::from(*self);
    }

    #[inline]
    fn extend_le(data: &[Self], out: &mut Vec<u8>) {
        out.extend(data.iter().map(|&b| u8::from(b)));
    }

    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

/// Writes the wire encoding of `data` into `out`, which holds exactly
/// `data.len() * T::WIRE_SIZE` bytes.
pub(crate) fn write_all<T: MpiType>(data: &[T], out: &mut [u8]) {
    debug_assert_eq!(out.len(), data.len() * T::WIRE_SIZE);
    for (x, slot) in data.iter().zip(out.chunks_exact_mut(T::WIRE_SIZE)) {
        x.write_le(slot);
    }
}

/// Encodes a slice of elements into a fresh byte vector.
pub fn encode<T: MpiType>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::WIRE_SIZE);
    T::extend_le(data, &mut out);
    out
}

/// Encodes a slice directly into its payload representation: inline (no
/// allocation) up to [`INLINE`] wire bytes, one owned buffer up to
/// [`EAGER_LIMIT`], an arena lease (rendezvous) above it.
pub(crate) fn encode_payload<T: MpiType>(data: &[T], pool: &Arc<BufferPool>) -> Payload {
    let wire = data.len() * T::WIRE_SIZE;
    if wire <= INLINE {
        let mut buf = [0u8; INLINE];
        write_all(data, &mut buf[..wire]);
        Payload::Inline {
            len: wire as u8,
            buf,
        }
    } else if wire <= EAGER_LIMIT {
        Payload::Owned(encode(data))
    } else {
        // The lease comes back cleared, with room for `wire` bytes.
        let mut lease = pool.lease(wire);
        T::extend_le(data, lease.buf_mut());
        Payload::Pooled(lease)
    }
}

/// Decodes a byte vector into elements of `T`.
///
/// # Errors
/// Returns [`MpiError::TypeMismatch`] if the byte length is not a multiple of
/// the element size.
pub fn decode<T: MpiType>(bytes: &[u8]) -> MpiResult<Vec<T>> {
    if !bytes.len().is_multiple_of(T::WIRE_SIZE) {
        return Err(MpiError::TypeMismatch {
            message_bytes: bytes.len(),
            elem_bytes: T::WIRE_SIZE,
        });
    }
    Ok(bytes.chunks_exact(T::WIRE_SIZE).map(T::read_from).collect())
}

/// Decodes into a caller-supplied buffer, checking capacity.
///
/// # Errors
/// [`MpiError::Truncated`] if the buffer is too small,
/// [`MpiError::TypeMismatch`] if the byte length is not a whole number of
/// elements. Returns the number of elements written.
pub(crate) fn decode_into<T: MpiType>(bytes: &[u8], buf: &mut [T]) -> MpiResult<usize> {
    if !bytes.len().is_multiple_of(T::WIRE_SIZE) {
        return Err(MpiError::TypeMismatch {
            message_bytes: bytes.len(),
            elem_bytes: T::WIRE_SIZE,
        });
    }
    let n = bytes.len() / T::WIRE_SIZE;
    if n > buf.len() {
        return Err(MpiError::Truncated {
            message_bytes: bytes.len(),
            buffer_bytes: buf.len() * T::WIRE_SIZE,
        });
    }
    for (slot, chunk) in buf.iter_mut().zip(bytes.chunks_exact(T::WIRE_SIZE)) {
        *slot = T::read_from(chunk);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let data = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        let back: Vec<f64> = decode(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_i32_and_usize() {
        let ints = [i32::MIN, -1, 0, 1, i32::MAX];
        assert_eq!(decode::<i32>(&encode(&ints)).unwrap(), ints);
        let sizes = [0usize, 1, usize::MAX];
        assert_eq!(decode::<usize>(&encode(&sizes)).unwrap(), sizes);
    }

    #[test]
    fn roundtrip_bool() {
        let bs = [true, false, true];
        assert_eq!(decode::<bool>(&encode(&bs)).unwrap(), bs);
    }

    #[test]
    fn decode_rejects_ragged_length() {
        let bytes = vec![0u8; 9];
        assert!(matches!(
            decode::<f64>(&bytes),
            Err(MpiError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn decode_into_detects_truncation() {
        let bytes = encode(&[1.0f64, 2.0, 3.0]);
        let mut buf = [0.0f64; 2];
        assert!(matches!(
            decode_into(&bytes, &mut buf),
            Err(MpiError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_into_partial_buffer_ok() {
        let bytes = encode(&[1.0f64, 2.0]);
        let mut buf = [0.0f64; 4];
        let n = decode_into(&bytes, &mut buf).unwrap();
        assert_eq!(n, 2);
        assert_eq!(&buf[..2], &[1.0, 2.0]);
    }

    #[test]
    fn empty_roundtrip() {
        let empty: [f64; 0] = [];
        let bytes = encode(&empty);
        assert!(bytes.is_empty());
        assert!(decode::<f64>(&bytes).unwrap().is_empty());
    }
}
