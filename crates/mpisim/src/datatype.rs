//! Typed views over message payloads.
//!
//! Messages travel as byte vectors; [`MpiType`] converts slices of plain
//! numeric types to and from bytes with explicit little-endian encoding (no
//! `unsafe`, per the data-race-freedom discipline of the surrounding
//! codebase — the cost is a copy, which the virtual-time model does not
//! observe anyway).

use crate::error::{MpiError, MpiResult};
use crate::p2p::{Payload, EAGER_LIMIT};
use crate::pool::BufferPool;
use std::sync::Arc;

/// A plain datatype that can cross the message-passing layer.
pub trait MpiType: Copy + Send + 'static {
    /// Size of one element in bytes on the wire.
    const WIRE_SIZE: usize;

    /// Appends the little-endian encoding of `self` to `out`.
    fn write_to(&self, out: &mut Vec<u8>);

    /// Decodes one element from exactly `WIRE_SIZE` bytes.
    fn read_from(bytes: &[u8]) -> Self;
}

macro_rules! impl_mpi_type {
    ($($t:ty),*) => {$(
        impl MpiType for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
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
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }

    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("read_from requires 8 bytes")) as usize
    }
}

impl MpiType for bool {
    const WIRE_SIZE: usize = 1;

    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

/// Encodes a slice of elements into a fresh byte vector.
pub fn encode<T: MpiType>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::WIRE_SIZE);
    for x in data {
        x.write_to(&mut out);
    }
    out
}

thread_local! {
    /// Per-rank scratch buffer for eager encoding: the wire bytes of a
    /// small message are staged here before being packed into the inline
    /// envelope, so the eager path allocates nothing after warm-up.
    static EAGER_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Encodes a slice directly into its protocol representation: inline
/// (eager, zero-allocation via a thread-local scratch) at or under
/// [`EAGER_LIMIT`] wire bytes, an arena lease (rendezvous) above it.
pub(crate) fn encode_payload<T: MpiType>(data: &[T], pool: &Arc<BufferPool>) -> Payload {
    let wire = data.len() * T::WIRE_SIZE;
    if wire <= EAGER_LIMIT {
        EAGER_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            for x in data {
                x.write_to(&mut scratch);
            }
            Payload::inline_from(&scratch)
        })
    } else {
        let mut lease = pool.lease(wire);
        let buf = lease.buf_mut();
        for x in data {
            x.write_to(buf);
        }
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
