//! LEB128 varints, the packed storage of the per-flow report series:
//! seven bits per byte, low group first, the high bit set on every byte
//! of a value but its last. A value below 128 costs one byte, so a
//! goodput bin of a fleet flow is one byte where a `u32` was four.

/// Append `v` to `buf` (one byte per started group of seven bits).
pub(crate) fn push(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// The values packed in `buf`, in push order.
pub(crate) fn values(buf: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let mut bytes = buf.iter();
    std::iter::from_fn(move || {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = *bytes.next()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
            shift += 7;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_group_boundary() {
        let mut vals = vec![0, 1, u64::from(u32::MAX), u64::MAX];
        for bits in (7..64).step_by(7) {
            vals.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        let mut buf = Vec::new();
        for &v in &vals {
            push(&mut buf, v);
        }
        assert_eq!(values(&buf).collect::<Vec<_>>(), vals);
        // One byte below 2⁷, two below 2¹⁴, ten for the full width.
        let len = |v| {
            let mut buf = Vec::new();
            push(&mut buf, v);
            buf.len()
        };
        assert_eq!([len(127), len(128), len(16_383), len(16_384)], [1, 2, 2, 3]);
        assert_eq!([len(u64::from(u32::MAX)), len(u64::MAX)], [5, 10]);
    }
}
