//! `codec` through `opal::ProcessImage`: context-file encode and decode.

use opal::ProcessImage;

use super::{timed, MIB};
use crate::app::bulk_image;
use crate::metrics::Metrics;
use crate::stats::median;

const REPS: usize = 9;

pub fn probe(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let image = bulk_image(seed, 0, 1024 * 1024)?;
    let mib = image.total_bytes() as f64 / MIB;
    let mut encode = Vec::with_capacity(REPS);
    let mut decode = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (bytes, secs) = timed(|| image.to_bytes());
        let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
        encode.push(mib / secs);
        let (back, secs) = timed(|| ProcessImage::from_bytes(&bytes));
        if back.map_err(|e| format!("decode: {e}"))? != image {
            return Err("codec round trip changed the image".into());
        }
        decode.push(mib / secs);
    }
    out.push("codec.encode_mib_s", median(&encode), REPS);
    out.push("codec.decode_mib_s", median(&decode), REPS);
    Ok(())
}
